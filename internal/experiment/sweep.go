package experiment

import (
	"fmt"
	"io"

	"innercircle/internal/stats"
)

// configRow is one configuration row of the paper's sweeps: the No-IC
// baseline or the inner circle at a dependability level.
type configRow struct {
	label string
	ic    bool
	level int
}

// configRows enumerates {No IC} followed by {IC, L=l} for each level —
// the row axis every figure shares.
func configRows(levels []int) []configRow {
	rows := []configRow{{label: "No IC"}}
	for _, l := range levels {
		rows = append(rows, configRow{label: fmt.Sprintf("IC, L=%d", l), ic: true, level: l})
	}
	return rows
}

// RunGrid evaluates a grid in process — the one sweep runner, behind
// cmd/icsweep and the library facade. It takes the same path icserved
// takes through its store, minus the store: validate, enumerate the
// points, run every replica from its wire spec on a pool of Workers()
// workers (IC_WORKERS overrides the core count; the core budget does not
// shrink the pool), and
// fold the result bytes strictly in enumeration order, so the tables are
// byte-identical for any worker count. A non-nil progress receives one
// line per finished replica, in completion order.
func RunGrid(g *GridRequest, progress io.Writer) ([]*stats.Table, error) {
	points, err := g.Points()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(points))
	for i, p := range points {
		jobs[i] = Job{Index: i, Label: p.Label, Run: func() (any, error) {
			b, _, err := p.Spec.Run()
			return b, err
		}}
	}
	var report ProgressFunc
	if progress != nil {
		report = func(done, total int, j Job, result any) {
			r, err := DecodeReplicaResult(result.([]byte))
			line := r.summary(g.Kind)
			if err != nil {
				line = err.Error()
			}
			fmt.Fprintf(progress, "[%d/%d] %s: %s\n", done, total, j.Label, line)
		}
	}
	done, err := RunJobs(jobs, Workers(), report)
	if err != nil {
		return nil, err
	}
	results := make([][]byte, len(done))
	for i, r := range done {
		results[i] = r.([]byte)
	}
	return g.Tables(results)
}

// summary renders the result's headline metrics for the progress stream,
// as the grid kind it ran in reports them.
func (r ReplicaResult) summary(gridKind string) string {
	k, ok := gridKinds[gridKind]
	if !ok || !replicaKinds[k.replica].body(r) {
		return "empty result"
	}
	return k.summary(r)
}
