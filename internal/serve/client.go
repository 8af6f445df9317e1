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
	body, err := json.Marshal(g)
	if err != nil {
		return JobInfo{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return JobInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return JobInfo{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return JobInfo{}, decodeError(resp)
	}
	defer resp.Body.Close()
	var j JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return JobInfo{}, err
	}
	return j, nil
}

// Job fetches one job's record.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var j JobInfo
	err := c.getJSON(ctx, "/jobs/"+id, &j)
	return j, err
}

// Wait follows a job's event stream until its terminal line, invoking
// onEvent (when non-nil) per event, then returns the job's final record.
// A stream that ends without that line (the service drained the job's
// attempt) is an error.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (JobInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return JobInfo{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return JobInfo{}, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	sawEnd := false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			resp.Body.Close()
			return JobInfo{}, fmt.Errorf("serve: event line %q: %w", sc.Text(), err)
		}
		if onEvent != nil {
			onEvent(e)
		}
		if e.Type == "end" {
			sawEnd = true
			break
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return JobInfo{}, err
	}
	if !sawEnd {
		return JobInfo{}, fmt.Errorf("serve: job %s event stream ended without a terminal line", id)
	}
	return c.Job(ctx, id)
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

func (c *Client) getText(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
