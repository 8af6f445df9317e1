package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"innercircle/internal/serve"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {111, 90, true}, {150, 90, true}, {200, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoveredTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: union is 10..60
		{ID: 4, Parent: 1, Start: 90, End: 120}, // pokes past the parent: clipped to 100
		{ID: 5, Parent: 2, Start: 15, End: 20},  // a grandchild only counts against its parent
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestSpanLogNestsByCallOrderAndNilIsOff(t *testing.T) {
	log := newSpanLog()
	log.label("grid_warm", 7)
	endJob := log.begin("job")
	endStep := log.begin("step")
	endStep()
	endJob()
	log.begin("next")()
	spans := log.finished()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != 0 {
		t.Errorf("parents = %d, %d, %d", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	if spans[1].Workload != "grid_warm" || spans[1].Op != 7 {
		t.Errorf("label not recorded: %+v", spans[1])
	}
	var off *spanLog
	off.label("x", 1)
	if d := off.begin("untraced")(); d < 0 {
		t.Error("nil log must still time the call")
	}
}

func defByName(t *testing.T, name string) e2eDef {
	t.Helper()
	for _, d := range e2eDefs {
		if d.name == name {
			return d
		}
	}
	t.Fatalf("no metric %s", name)
	return e2eDef{}
}

func TestRegressionNeedsBoundAndFloor(t *testing.T) {
	p50 := defByName(t, "op_p50_ms") // +10 %, floor 1 ms
	for _, c := range []struct {
		base, next float64
		want       bool
	}{
		{100, 109, false}, // inside the bound
		{100, 112, true},  // beyond bound and floor
		{5, 5.9, false},   // +18 % but under the 1 ms floor
		{5, 6.5, true},    // beyond both
		{100, 50, false},  // better
	} {
		if got := p50.regressed(c.base, c.next); got != c.want {
			t.Errorf("op_p50_ms %v -> %v regressed = %v, want %v", c.base, c.next, got, c.want)
		}
	}
	ops := defByName(t, "ops_per_s") // higher is better, −10 %
	if ops.regressed(10, 9.5) || !ops.regressed(10, 8.5) || ops.regressed(10, 12) {
		t.Error("ops_per_s must regress only on a drop beyond 10 %")
	}
	fail := defByName(t, "fail_ratio")
	if !fail.regressed(0, 0.01) || fail.regressed(0.01, 0.01) {
		t.Error("fail_ratio must regress on any increase")
	}
}

func TestJudgeReportsUnresolvedWhenSetsSpreadBeyondBound(t *testing.T) {
	d := defByName(t, "op_p50_ms")
	if got := d.judge(100, 104, []float64{99, 101}, []float64{103, 105}); got != verdictOK {
		t.Errorf("tight sets inside the bound: %s", got)
	}
	if got := d.judge(100, 130, []float64{99, 101}, []float64{129, 131}); got != verdictRegressed {
		t.Errorf("tight sets beyond the bound: %s", got)
	}
	// Base sets 80..120 spread 40 % > 10 %: the medians resolve nothing.
	if got := d.judge(100, 105, []float64{80, 120}, []float64{100, 110}); got != verdictUnresolved {
		t.Errorf("wide sets: %s", got)
	}
	if got := d.judge(100, 60, []float64{80, 120}, []float64{55, 65}); got != verdictOK {
		t.Errorf("every new set better than every base set: %s", got)
	}
	if got := d.judge(100, 150, []float64{80, 120}, []float64{140, 160}); got != verdictRegressed {
		t.Errorf("every new set worse than every base set: %s", got)
	}
}

func TestGoldenMismatchFailsEveryOp(t *testing.T) {
	g := goldenFile{GOARCH: runtime.GOARCH, Digests: map[string]string{goldenKey("fig8_sensor", 4, 1): "aa"}}
	r := childResult{Workload: "fig8_sensor", Seed: 1, Ops: 4, Digest: "bb", OpMs: []float64{1, 1, 1, 1}}
	if got := applyGolden(g, &r); got != goldenMismatch {
		t.Fatalf("verdict %s, want mismatch", got)
	}
	if r.Failed != 4 || e2eMetrics(r, nil)["fail_ratio"].Value != 1 {
		t.Errorf("mismatch must fail every op: failed=%d", r.Failed)
	}
	r = childResult{Workload: "fig8_sensor", Seed: 1, Ops: 4, Digest: "aa"}
	if got := applyGolden(g, &r); got != goldenOK || r.Failed != 0 {
		t.Errorf("matching digest: %s, failed=%d", got, r.Failed)
	}
	// An unpinned seed, or another architecture, runs unchecked.
	r.Seed = 99
	if got := applyGolden(g, &r); got != goldenUnchecked {
		t.Errorf("unpinned seed: %s", got)
	}
	g.GOARCH = "other"
	r.Seed, r.Digest = 1, "bb"
	if got := applyGolden(g, &r); got != goldenUnchecked || r.Failed != 0 {
		t.Errorf("other architecture: %s, failed=%d", got, r.Failed)
	}
}

func TestCompareRequiresDigestsAndCountsIdentical(t *testing.T) {
	mk := func(digest string, beacons, p50 float64) record {
		return record{Schema: recordSchema, Seed: 1, Seconds: 10, NumSets: 1,
			Workloads: []workloadRecord{{Name: "fig7_adhoc", Digest: digest, Golden: goldenOK,
				Metrics: map[string]metric{"op_p50_ms": {p50, "ms"}}, Sets: map[string][]float64{"op_p50_ms": {p50}}}},
			Layers: map[string]metric{"sts.beacons": {beacons, "count"}, "sim.fire_ns": {70, "ns"}}}
	}
	var out bytes.Buffer
	if bad := compareRecords(&out, mk("abcdefabcdefabcd", 1100, 100), mk("abcdefabcdefabcd", 1100, 104)); bad != 0 {
		t.Errorf("same build flagged %d rows:\n%s", bad, out.String())
	}
	if bad := compareRecords(&out, mk("abcdefabcdefabcd", 1100, 100), mk("0123456789abcdef", 1100, 100)); bad != 1 {
		t.Errorf("digest change flagged %d rows, want 1", bad)
	}
	if bad := compareRecords(&out, mk("abcdefabcdefabcd", 1100, 100), mk("abcdefabcdefabcd", 1101, 100)); bad != 1 {
		t.Errorf("count change flagged %d rows, want 1", bad)
	}
	out.Reset()
	if bad := compareRecords(&out, mk("abcdefabcdefabcd", 1100, 100), mk("abcdefabcdefabcd", 1100, 120)); bad != 1 ||
		!strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slowdown flagged %d rows:\n%s", bad, out.String())
	}
}

// A stub service whose event stream ends without the "end" line the first
// early times it is followed, as serve.handleEvents can.
func earlyClosingService(early int) *httptest.Server {
	follows := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		follows++
		io.WriteString(w, `{"type":"point","done":1,"total":1}`+"\n")
		if follows > early {
			io.WriteString(w, `{"type":"end","state":"done"}`+"\n")
		}
	})
	mux.HandleFunc("GET /jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"id":"j1","state":"done"}`)
	})
	return httptest.NewServer(mux)
}

func TestWaitJobFollowsAnEarlyClosedStreamAgain(t *testing.T) {
	for _, tc := range []struct {
		early, refollows int
		fails            bool
	}{{0, 0, false}, {2, 2, false}, {maxRefollows + 1, maxRefollows, true}} {
		ts := earlyClosingService(tc.early)
		job, refollows, err := waitJob(context.Background(), &serve.Client{Base: ts.URL}, "j1", nil)
		ts.Close()
		if refollows != tc.refollows || (err != nil) != tc.fails {
			t.Errorf("stream closed early %d times: %d refollows, err %v; want %d, failure %v",
				tc.early, refollows, err, tc.refollows, tc.fails)
		}
		if err == nil && job.State != serve.JobDone {
			t.Errorf("stream closed early %d times: job state %q", tc.early, job.State)
		}
	}
	// Any other error is not retried.
	ts := earlyClosingService(0)
	defer ts.Close()
	if _, refollows, err := waitJob(context.Background(), &serve.Client{Base: ts.URL}, "nope", nil); err == nil || refollows != 0 {
		t.Errorf("unknown job: %d refollows, err %v; want an error at once", refollows, err)
	}
}

func TestOpCountsScaleWithRunLength(t *testing.T) {
	want := map[string][3]int{ // reference 10 s, full 30 s, smoke
		"fig7_adhoc":  {18, 54, 1},
		"fig8_sensor": {40, 100, 4},
		"field_scale": {10, 15, 1},
		"grid_cold":   {9, 24, 1},
		"grid_warm":   {111, 150, 11},
	}
	for _, w := range workloads {
		got := [3]int{w.ops(size{seconds: 10}), w.ops(size{seconds: 30}), w.ops(size{seconds: 10, smoke: true})}
		if got != want[w.name] {
			t.Errorf("%s ops = %v, want %v", w.name, got, want[w.name])
		}
	}
}

// benchmarkJSON mirrors the keys of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONListsWhatTheCodeReports(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, defined %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var e2e []e2eDef
	for _, d := range e2eDefs {
		if d.driverBound > 0 {
			e2e = append(e2e, d)
		}
	}
	if len(bj.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(bj.EndToEnd), len(e2e))
	}
	for i, d := range e2e {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higherBetter) ||
			got.Bound != d.driverBound {
			t.Errorf("end-to-end %d: listed %+v, defined %s %s", i, got, d.name, d.unit)
		}
	}
	if len(bj.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(bj.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higherBetter) {
			t.Errorf("per-layer %d: listed %+v, defined %s %s", i, got, d.name, d.unit)
		}
	}
}

// smoke runs one workload's smoke path in process and checks it against
// the pinned digest.
func smoke(t *testing.T, name string) {
	if testing.Short() {
		t.Skip("smoke path skipped under -short")
	}
	if raceEnabled {
		t.Skip("smoke path skipped under -race: it measures, it does not share state")
	}
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	res, err := runWorkload(w, 1, size{seconds: 10, smoke: true}, t.TempDir(), false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	verdict := applyGolden(golden, &res)
	if res.Failed != 0 || res.Ops != w.ops(size{seconds: 10, smoke: true}) {
		t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Ops, res.Failures)
	}
	if golden.GOARCH == runtime.GOARCH && verdict != goldenOK {
		t.Errorf("golden verdict %s for digest %s", verdict, res.Digest)
	}
	for name, m := range e2eMetrics(res, nil) {
		if name != "fail_ratio" && !(m.Value > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, m.Value)
		}
	}
}

func TestSmokeFig8Sensor(t *testing.T) { smoke(t, "fig8_sensor") }

func TestSmokeGridWarm(t *testing.T) { smoke(t, "grid_warm") }
