// Client for the experiment service — the repro driver, the CI smoke and
// the integration tests all speak to icserved through it.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"innercircle/internal/experiment"
)

// Client talks to one icserved instance.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// decodeError surfaces the service's {"error": ...} body.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 64*1024)).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("serve: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("serve: %s", resp.Status)
}

// Submit posts a grid and returns the queued job.
func (c *Client) Submit(ctx context.Context, g *experiment.GridRequest) (JobInfo, error) {
	b, err := json.Marshal(g)
	if err != nil {
		return JobInfo{}, err
	}
	return readJob(c.do(ctx, http.MethodPost, "/jobs", bytes.NewReader(b), http.StatusAccepted))
}

// Job fetches one job's record.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	return readJob(c.get(ctx, "/jobs/"+id))
}

// readJob decodes the job record a response body holds.
func readJob(body io.ReadCloser, err error) (JobInfo, error) {
	var j JobInfo
	if err != nil {
		return j, err
	}
	defer body.Close()
	err = json.NewDecoder(body).Decode(&j)
	return j, err
}

// Wait follows a job's event stream until its terminal line, invoking
// onEvent (when non-nil) per event, then returns the job's final record.
// A stream that ends without that line (the service drained the job's
// attempt) is an error.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (JobInfo, error) {
	body, err := c.get(ctx, "/jobs/"+id+"/events")
	if err != nil {
		return JobInfo{}, err
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return JobInfo{}, fmt.Errorf("serve: event line %q: %w", sc.Text(), err)
		}
		if onEvent != nil {
			onEvent(e)
		}
		if e.Type == "end" {
			body.Close()
			return c.Job(ctx, id)
		}
	}
	if err := sc.Err(); err != nil {
		return JobInfo{}, err
	}
	return JobInfo{}, fmt.Errorf("serve: job %s event stream ended without a terminal line", id)
}

// Tables fetches a done job's rendered tables (CLI-identical text).
func (c *Client) Tables(ctx context.Context, id string) (string, error) {
	return c.getText(ctx, "/jobs/"+id+"/tables")
}

// TablesCSV fetches a done job's long-form CSV.
func (c *Client) TablesCSV(ctx context.Context, id string) (string, error) {
	return c.getText(ctx, "/jobs/"+id+"/tables.csv")
}

// Manifest fetches a done job's run manifest.
func (c *Client) Manifest(ctx context.Context, id string) ([]byte, error) {
	t, err := c.getText(ctx, "/jobs/"+id+"/manifest")
	return []byte(t), err
}

// Artifact fetches raw result bytes by digest.
func (c *Client) Artifact(ctx context.Context, digest string) ([]byte, error) {
	t, err := c.getText(ctx, "/artifacts/"+digest)
	return []byte(t), err
}

// do sends a request for path, with a JSON body when body is not nil, and
// returns the response body when the status is want, else the service's
// error.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, want int) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

func (c *Client) get(ctx context.Context, path string) (io.ReadCloser, error) {
	return c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
}

func (c *Client) getText(ctx context.Context, path string) (string, error) {
	body, err := c.get(ctx, path)
	if err != nil {
		return "", err
	}
	defer body.Close()
	b, err := io.ReadAll(body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
