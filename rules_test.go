package innercircle_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// scope is one directory a repo rule scans.
type scope struct {
	dir       string // relative to the module root; "." is the root
	recursive bool   // subdirectories too
	tests     bool   // _test.go files too
}

// repoRule is one structural rule of the repository: no file in its scope
// may hold a line its pattern matches.
type repoRule struct {
	name    string
	pattern *regexp.Regexp
	scopes  []scope
	globs   []string // base names scanned; nil scans every text file
	allow   []string // paths exempt from this rule; a trailing / exempts a directory
	msg     string
	// hit is a line the rule must flag and miss a near miss it must pass;
	// both are planted in a temporary tree, so a pattern that stops matching
	// the name it retires fails here.
	hit, miss string
}

// sharedAllow is exempt from every rule: the change log and the roadmap
// name retired mechanisms on purpose, and this file spells
// every pattern and planted hit. The .git directory and binary files (a
// NUL byte anywhere) are skipped as well.
var sharedAllow = []string{"CHANGES.md", "ROADMAP.md", "rules_test.go"}

var (
	wholeTree = []scope{{".", true, true}}
	// programGo is the program's non-test Go: internal/, cmd/ and the
	// module root's own files.
	programGo = []scope{{"internal", true, false}, {"cmd", true, false}, {".", false, false}}
	textGlobs = []string{"*.md", "*.sh", "*.yml", "*.go"}
	goGlob    = []string{"*.go"}
)

var repoRules = []repoRule{
	// The program reads one environment setting, IC_WORKERS, in one file.
	// A read or a write anywhere else is a new knob: fail so it cannot land
	// unnoticed. Under internal/ and cmd/ tests may touch the environment;
	// the module root's files may not, tests included.
	{
		name:    "Environment-read",
		pattern: regexp.MustCompile(`os\.(Getenv|LookupEnv|Setenv)`),
		scopes:  []scope{{"internal", true, false}, {"cmd", true, false}, {".", false, true}},
		globs:   goGlob,
		allow:   []string{"internal/experiment/pool.go"},
		msg:     "environment read or write outside internal/experiment/pool.go",
		hit:     `	v := os.Getenv("IC_WORKERS")`,
		miss:    `	env := os.Environ()`,
	},
	// A shard count is a field of the spec (sensor.shards in a request,
	// `icsweep sensor|churn -shards`) and the per-shard report a flag
	// (-shardstats). No file may name the two environment variables that
	// used to carry them.
	{
		name:    "Retired-shard-variable",
		pattern: regexp.MustCompile(`IC_SHARD(S|_STATS)`),
		scopes:  wholeTree,
		msg:     "a retired shard variable is still named; a shard count is the spec's shards field",
		hit:     `IC_SHARDS=4 go run ./cmd/icsweep sensor -quick`,
		miss:    `IC_WORKERS=4 go run ./cmd/icsweep sensor -quick -shards 4`,
	},
	// icsweep is the one sweep program. No file may name one of the four
	// binaries it replaced.
	{
		name:    "Retired-binary",
		pattern: regexp.MustCompile(`cmd/(blackhole|sensornet|faultsweep|churnsweep)`),
		scopes:  wholeTree,
		globs:   textGlobs,
		msg:     "a retired sweep binary is still named; use: icsweep <blackhole|sensor|campaign|churn>",
		hit:     `go run ./cmd/blackhole -quick`,
		miss:    `go run ./cmd/icsweep blackhole -quick`,
	},
	// experiment.GridRequest run by experiment.RunGrid is the one sweep
	// API. No file may name one of the thirteen identifiers of the typed
	// front end it replaced. Whole words only, so the test names that end
	// in ...Sweep pass.
	{
		name:    "Retired-sweep-API",
		pattern: regexp.MustCompile(`\b(?:(Blackhole|Sensor|Campaign|Churn)(Sweep|Points)|(Campaign|Churn)Tables|Sensor(TableKeys)|Validate(Campaign|Churn)Sweep)\b`),
		scopes:  wholeTree,
		globs:   textGlobs,
		msg:     "a retired sweep function is still named; build a GridRequest and call RunGrid",
		hit:     `	tables, err := experiment.BlackholeSweep(cfg)`,
		miss:    `func TestBlackholeSweep(t *testing.T) {`,
	},
	// BENCHMARK.json, written by scripts/bench, is the one performance
	// record, and icsweep and scripts/repro print the paper tables. No file
	// outside scripts/bench may name one of the seven retired
	// BENCH_<layer>.json records or the two settings of the retired table
	// benchmarks.
	{
		name:    "Retired-record",
		pattern: regexp.MustCompile(`BENCH_[a-z_]+\.json|IC_(RUNS|FULL)`),
		scopes:  wholeTree,
		allow:   []string{"scripts/bench/"},
		msg:     "a retired measurement record or benchmark setting is still named",
		hit:     `see BENCH_sim.json for the kernel numbers`,
		miss:    `see BENCHMARK.json for the kernel numbers`,
	},
	// icserved pushes job progress: a follower blocks on its job's wake
	// channel, which the job's own writes close. No timer wait in
	// internal/serve's non-test code, so a poll cannot come back.
	{
		name:    "Retired-poll",
		pattern: regexp.MustCompile(`time\.(After|Sleep|NewTicker|Tick)\b`),
		scopes:  []scope{{"internal/serve", false, false}},
		globs:   goGlob,
		msg:     "internal/serve waits on a timer; wake followers from the job's writes instead",
		hit:     `	case <-time.After(100 * time.Millisecond):`,
		miss:    `	stop := time.AfterFunc(d, cancel)`,
	},
	// A job's record is the only file it owns: its tables, CSV and run
	// manifest are store objects the record names by digest, read back
	// hash-checked, and its event lines live in memory. No Go in
	// internal/serve may name the job files that held them or the stream
	// file's writer and reader.
	{
		name:    "Retired-job-files",
		pattern: regexp.MustCompile(`\.(tables\.(txt|csv)|events\.jsonl|manifest\.json)"|\b(tablesPath|csvPath|eventsPath|manifestPath|eventLog|openEventStream)\b`),
		scopes:  []scope{{"internal/serve", false, true}},
		globs:   goGlob,
		msg:     "a job's tables, CSV, event stream or run manifest is kept as a job file; outputs go in the store (store.PutResult) named by the record, and event lines stay in memory",
		hit:     `	return filepath.Join(jobsDir(s.opts.Dir), id+".events.jsonl")`,
		miss:    `	mux.HandleFunc("GET /jobs/{id}/manifest", s.handleJobOutput(func(j JobInfo) string { return j.ManifestSHA256 }, "application/json"))`,
	},
	// A replica's outcome is typed fields (scenario.Result and the
	// experiment result structs), and the artifact store's manifests are
	// its only spec→result map. No non-test Go may name the retired
	// string-keyed metric bag or its constructors, the harvest hook, or the
	// store's retired index file.
	{
		name:    "Retired-metric-bag",
		pattern: regexp.MustCompile(`stats\.(Counters|Gauges)|New(Counters|Gauges)|Harvester|index\.jsonl`),
		scopes:  programGo,
		globs:   goGlob,
		msg:     "a retired metric bag, harvest hook or store index is still named; use typed result fields and the manifests",
		hit:     `	c := stats.NewCounters()`,
		miss:    `	path := filepath.Join(root, "manifests", "index.json")`,
	},
	// A radio reception resolves as one item of its transmission's kernel
	// batch (sim.Batch), registered by Channel.Send or, across a shard
	// border, by the posted registration. No non-test Go in internal/radio
	// may schedule an event per arrival, so the one arrival path cannot
	// grow a second one back.
	{
		name:    "Retired-per-arrival-event",
		pattern: regexp.MustCompile(`\bScheduleFire(Arg)?\(`),
		scopes:  []scope{{"internal/radio", false, false}},
		globs:   goGlob,
		msg:     "internal/radio schedules a per-arrival event; add the arrival to its transmission's sim.Batch",
		hit:     `	k.ScheduleFireArg(at, deliver, a)`,
		miss:    `	k.ScheduleFireAt(at, deliver)`,
	},
	// A beacon verdict is memoized in one place: the topology service
	// checks its shard's sts.Memo before either authenticator. No non-test
	// Go may name the SimAuth-only memo it replaced or the Network field
	// that held it.
	{
		name:    "Retired-SimAuth-memo",
		pattern: regexp.MustCompile(`\b(New)?SimMemo\b|\bSimBeaconMemos\b`),
		scopes:  programGo,
		globs:   goGlob,
		msg:     "a retired SimAuth beacon memo is still named; the topology service checks its shard's sts.Memo",
		hit:     `	net.SimBeaconMemos[s] = sts.NewSimMemo(simKeys)`,
		miss:    `	net.BeaconMemos[s] = sts.NewMemo(cfg.N)`,
	},
	// ... and the authenticators are pure verifiers: internal/sts's
	// non-test Go does not import the LRU verification memo, which stays
	// the voting services' alone.
	{
		name:    "Retired-beacon-sigcache",
		pattern: regexp.MustCompile(`"innercircle/internal/crypto/sigcache"`),
		scopes:  []scope{{"internal/sts", false, false}},
		globs:   goGlob,
		msg:     "internal/sts imports sigcache; beacon verdicts are memoized by sts.Memo in the topology service",
		hit:     `	"innercircle/internal/crypto/sigcache"`,
		miss:    `	"innercircle/internal/crypto/keyedmac"`,
	},
	// A node signs with one authenticator: the voting service signs and
	// checks statistical values through vote.Deps.Auth, the sts.Auth its
	// topology service signs beacons with. No non-test Go under
	// internal/vote may import the NSL package, so a raw key pair or a key
	// directory cannot come back beside it.
	{
		name:    "Vote-signs-through-Auth",
		pattern: regexp.MustCompile(`"innercircle/internal/crypto/nsl"`),
		scopes:  []scope{{"internal/vote", true, false}},
		globs:   goGlob,
		msg:     "internal/vote imports nsl; sign and verify values through vote.Deps.Auth, the node's sts.Auth",
		hit:     `	"innercircle/internal/crypto/nsl"`,
		miss:    `	"innercircle/internal/crypto/sigcache"`,
	},
	// Threshold keys have one interface: thresh.Dealer carries the whole
	// lifecycle (Deal, DKG, Refresh, Reshare) and thresh.GroupKey its
	// Epoch and VerifyPartial, which both schemes implement. No Go file
	// and none of the repository's own guides may name the five optional
	// capability interfaces they replaced, so no call site type-asserts a
	// dealer or a key again. Whole words only, so a method such as Refresh
	// or VerifyPartial passes.
	{
		name:    "Retired-thresh-capability",
		pattern: regexp.MustCompile(`\b(Epoched|KeyGenerator|Refresher|Resharer|PartialVerifier)\b`),
		scopes:  wholeTree,
		globs:   []string{"*.go", "README.md", "DESIGN.md", "EXPERIMENTS.md", "SKILL.md"},
		msg:     "a retired threshold-key capability interface is still named; call the method on thresh.Dealer or thresh.GroupKey",
		hit:     `	pv, ok := gk.(thresh.PartialVerifier)`,
		miss:    `func (d *SimDealer) Refresh(gk GroupKey, old []Signer)`,
	},
	// Observation attaches one way per layer: a link tap chain
	// (link.Service.AddTap) and one kernel observer (sim.Kernel.OnFire).
	// The link's observer func, its single tap slot and the kernel's and
	// shard set's event limits are gone; an event limit is an observer.
	{
		name:    "Retired-link-hooks",
		pattern: regexp.MustCompile(`\b(SetObserver|SetTap|SetEventLimit)\(`),
		scopes:  wholeTree,
		globs:   []string{"*.go", "*.yml", "README.md", "DESIGN.md", "EXPERIMENTS.md", "SKILL.md"},
		msg:     "a retired observation hook is called; add a link tap with AddTap, or observe the kernel with OnFire",
		hit:     `		env.Net.Set.SetEventLimit(1000)`,
		miss:    `func (t *Tracer) Attach(l *link.Service) { l.AddTap(recorder{t, l.ID()}) }`,
	},
	// The interceptor enforces the template rule itself: a template match
	// carrying no agreement is suppressed as unsigned. node.Build installs
	// the one verifier, the voting service's agreed-message check, so no
	// other program Go calls SetVerifier (its definition has no receiver
	// dot before the name), and the AODV adapter has no verifier of its own
	// and no late binding to a voting service.
	{
		name:    "Retired-adapter-verifier",
		pattern: regexp.MustCompile(`\.SetVerifier\(|func \(a \*ICAdapter\) (Verifier|Bind)\b`),
		scopes:  programGo,
		globs:   goGlob,
		allow:   []string{"internal/node/node.go"},
		msg:     "a second interceptor verifier is installed; node.Build's vote verifier is the one, and the interceptor rejects unvoted template matches itself",
		hit:     `		nd.Intercept.SetVerifier(rt.adapters[nd.Index].Verifier())`,
		miss:    `func (ic *Interceptor) SetVerifier(v Verifier) { ic.verify = v }`,
	},
	// A voter's reply reaches its center through one inward path,
	// vote.Service.inward, for acks and value messages alike. No Go file
	// may name the two per-kind relay functions it replaced.
	{
		name:    "Retired-relay-twins",
		pattern: regexp.MustCompile(`\b(maybeRelayAck|maybeRelayValue)\b`),
		scopes:  wholeTree,
		globs:   goGlob,
		msg:     "a per-kind vote relay is back; route every reply through vote.Service.inward",
		hit:     `		s.maybeRelayAck(from, m)`,
		miss:    `	r := s.inward(from, relayKey{center: m.Center, seq: m.Seq, voter: m.Voter, kind: kindAck}, fwd)`,
	},
	// A forwarded message is the message received: the hop count is the
	// link envelope's, advanced by link.Service.Forward, and travels in the
	// MAC header. No program Go bumps a hop field of its own message (a
	// forward that boxes a copy), and the MAC's one queueing entry for a
	// forged source is SendPacket.
	{
		name:    "Forward-re-sends-received",
		pattern: regexp.MustCompile(`\.Hops\+\+|\bSendAs\(`),
		scopes:  programGo,
		globs:   goGlob,
		msg:     "a forward re-boxes its message to bump a hop field; forward the received envelope with link.Service.Forward",
		hit:     `	m.Hops++`,
		miss:    `	return s.out(Env{From: s.id, To: to, Msg: e.Msg, Hops: e.Hops + 1})`,
	},
	// A scenario component reaches a node through one hook,
	// Component.Attach, which node.Build calls for every node in both
	// modes; a Wirer sets per-attempt state. No Go file may declare or name
	// the three hooks that made a second construction path: the IC-only
	// registration, the start hook and the per-attempt reset.
	{
		name:    "Retired-scenario-hooks",
		pattern: regexp.MustCompile(`type (Registrar|Starter|Resetter) interface|scenario\.(Registrar|Starter|Resetter)\b`),
		scopes:  wholeTree,
		globs:   goGlob,
		msg:     "a retired scenario hook is back; build per-node state in Component.Attach and per-attempt state in Wire",
		hit:     `type Resetter interface {`,
		miss:    `func (s *Service) Start() {`,
	},
	// Key material is a function of the node.Config: node.Build draws every
	// node key from one seeded stream and every handshake nonce from the
	// node's "nsl" stream. No program Go may name the crypto/rand key
	// generator or the sensor scenario's private key cache, or hand a
	// handshake party a nil reader (with which every handshake fails). The
	// argument list may hold one level of parentheses, as int64(i) does.
	{
		name:    "Unseeded-build-randomness",
		pattern: regexp.MustCompile(`GenerateKeySet\(|cachedSensorKeys|NewParty\((?:[^()]|\([^()]*\))*,\s*nil\)`),
		scopes:  programGo,
		globs:   goGlob,
		msg:     "unseeded key material in the program; draw node keys and nonces from node.Build's seeded streams",
		hit:     `	stsDeps.Party = nsl.NewParty(int64(i), kp, dir, nil)`,
		miss:    `	stsDeps.Party = nsl.NewParty(int64(i), kp, dir, rng)`,
	},
	// Every draw in the library reads a caller's stream: primes come from
	// nsl.Prime, uniform integers from shamir.RandInt, and neither has a
	// default source. Only a command may name crypto/rand (cmd/ickeys
	// deals real keys from it), so no non-test Go under internal/ or in the
	// module root may import it.
	{
		name:    "Crypto-rand-outside-cmd",
		pattern: regexp.MustCompile(`"crypto/rand"`),
		scopes:  []scope{{"internal", true, false}, {".", false, false}},
		globs:   goGlob,
		msg:     "crypto/rand imported by the library; take an io.Reader from the caller and leave real entropy to cmd/",
		hit:     `	"crypto/rand"`,
		miss:    `	"crypto/sha256"`,
	},
	// A primality verdict comes from one test: nsl.IsProbablePrime, math/big's
	// ProbablyPrime(20) run on the mont kernel. No program Go may call
	// math/big's ProbablyPrime, so a second, slower check with other
	// rounds cannot come back; tests compare against it freely.
	{
		name:    "Primality-one-way",
		pattern: regexp.MustCompile(`\.ProbablyPrime\(`),
		scopes:  programGo,
		globs:   goGlob,
		msg:     "math/big's ProbablyPrime is called; use nsl.IsProbablePrime, the one primality test",
		hit:     `		for !e.ProbablyPrime(32) {`,
		miss:    `		for !nsl.IsProbablePrime(e) {`,
	},
	// Montgomery arithmetic is a node-key concern: mont serves nsl's
	// signatures and prime search, and nothing else. Threshold RSA combines
	// and verifies on math/big, so no second Montgomery layer can grow on
	// top of mont outside nsl.
	{
		name:    "Mont-serves-node-keys",
		pattern: regexp.MustCompile(`"innercircle/internal/crypto/mont"`),
		scopes:  wholeTree,
		globs:   goGlob,
		allow:   []string{"internal/crypto/mont/", "internal/crypto/nsl/"},
		msg:     "a package other than nsl imports internal/crypto/mont; compute on math/big, or move the arithmetic into nsl",
		hit:     `	"innercircle/internal/crypto/mont"`,
		miss:    `	"innercircle/internal/crypto/nsl"`,
	},
	// The one assembly in the repository is mont's four-word Montgomery
	// kernel on amd64, held word for word to the Go loop every other
	// GOARCH builds. No assembly routine may appear anywhere else.
	{
		name:    "Assembly-outside-mont",
		pattern: regexp.MustCompile(`^\s*TEXT\s`),
		scopes:  wholeTree,
		globs:   []string{"*.s"},
		allow:   []string{"internal/crypto/mont/"},
		msg:     "an assembly routine outside internal/crypto/mont; write it in Go, or in mont with a differential test against its Go twin",
		hit:     `TEXT ·mul4(SB), NOSPLIT, $0-40`,
		miss:    `	MOVQ x+8(FP), SI`,
	},
}

// TestRepoRules enforces the repository's structural rules: each row keeps
// a deleted mechanism from growing back, or a thing confined to one place
// from spreading. A PR that retires a mechanism adds a row here, not a CI
// step. Every row also proves it still bites: its planted hit must be
// flagged and its near miss passed, and every path it names must exist.
func TestRepoRules(t *testing.T) {
	for _, r := range repoRules {
		t.Run(r.name, func(t *testing.T) {
			for _, p := range r.allow {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("allowed path: %v; drop the entry with its file", err)
				}
			}
			for _, sc := range r.scopes {
				if _, err := os.Stat(sc.dir); err != nil {
					t.Errorf("scanned directory: %v; the row checks nothing there", err)
				}
			}

			tmp := t.TempDir()
			for _, sc := range r.scopes {
				if err := os.MkdirAll(filepath.Join(tmp, sc.dir), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			planted := filepath.Join(tmp, r.scopes[0].dir, "planted.txt")
			if r.globs != nil {
				planted = filepath.Join(tmp, r.scopes[0].dir, "planted"+strings.TrimPrefix(r.globs[0], "*"))
			}
			for _, s := range []struct {
				line string
				want int
			}{{r.hit, 1}, {r.miss, 0}} {
				if err := os.WriteFile(planted, []byte("x\n"+s.line+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				hits, err := r.scan(tmp)
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != s.want {
					t.Errorf("planted %q: %d hits, want %d", s.line, len(hits), s.want)
				}
			}

			hits, err := r.scan(".")
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) > 0 {
				t.Errorf("%s\n%s", strings.Join(hits, "\n"), r.msg)
			}
		})
	}
}

// scan returns every line under root that r flags, as path:line: text.
func (r repoRule) scan(root string) ([]string, error) {
	var hits []string
	for _, sc := range r.scopes {
		top := filepath.Join(root, sc.dir)
		err := filepath.WalkDir(top, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if d.IsDir() {
				if rel == ".git" || p != top && !sc.recursive {
					return filepath.SkipDir
				}
				return nil
			}
			if !r.covers(rel, sc.tests) {
				return nil
			}
			b, err := os.ReadFile(p)
			if err != nil || bytes.IndexByte(b, 0) >= 0 {
				return err
			}
			for i, line := range bytes.Split(b, []byte("\n")) {
				if r.pattern.Match(line) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", rel, i+1, line))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return hits, nil
}

// covers reports whether r scans the file at rel, a slash path from the
// module root.
func (r repoRule) covers(rel string, tests bool) bool {
	name := path.Base(rel)
	if !tests && strings.HasSuffix(name, "_test.go") {
		return false
	}
	for _, allow := range [][]string{sharedAllow, r.allow} {
		for _, a := range allow {
			if rel == a || strings.HasSuffix(a, "/") && strings.HasPrefix(rel, a) {
				return false
			}
		}
	}
	if r.globs == nil {
		return true
	}
	for _, g := range r.globs {
		if ok, _ := path.Match(g, name); ok {
			return true
		}
	}
	return false
}
