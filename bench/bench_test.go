package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeRun runs one shrunken workload with one timed pass.
func smokeRun(t *testing.T, w workload, untraced bool, probes map[string]float64) *workloadResult {
	t.Helper()
	res, err := runWorkload(w.smoke(), runConfig{Seed: 7, Passes: 1, Untraced: untraced, Traced: true, Probes: probes})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

// TestSmokeAllWorkloads runs all five workloads at smoke size and checks
// that every metric the registry names is reported and finite, that no
// op fails, and that a second run agrees exactly on the digest and on
// every exact per-layer count. The digest hashes every op's virtual
// results, which the end-to-end virt_* metrics are pure functions of.
func TestSmokeAllWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	probes := map[string]float64{}
	substrateProbes(func(name string, v float64) {
		if !known[name] {
			t.Errorf("probe emits %s, which the registry does not list", name)
		}
		probes[name] = v
	})
	for _, w := range workloads {
		a, b := smokeRun(t, w, true, probes), smokeRun(t, w, false, probes)
		if a.Failed != 0 || a.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, a.Failed, a.Attempted, a.Errors)
		}
		if err := a.finite(); err != nil {
			t.Error(err)
		}
		if a.VirtDigest != b.VirtDigest {
			t.Errorf("%s: virt_digest %s then %s", w.Name, a.VirtDigest, b.VirtDigest)
		}
		for _, part := range []struct {
			defs []metricDef
			got  map[string]metricValue
		}{{endToEnd, a.EndToEnd}, {perLayer, a.PerLayer}} {
			if len(part.got) != len(part.defs) {
				t.Errorf("%s: %d metrics reported, registry has %d", w.Name, len(part.got), len(part.defs))
			}
			for _, d := range part.defs {
				v, ok := part.got[d.Name]
				if !ok {
					t.Errorf("%s: metric %s missing", w.Name, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		for _, d := range perLayer {
			if va, vb := a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value; d.Exact && va != vb {
				t.Errorf("%s: exact metric %s read %v then %v", w.Name, d.Name, va, vb)
			}
		}
		for _, d := range endToEnd {
			if a.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, a.EndToEnd[d.Name].Value)
			}
		}
	}
}

// TestCorruptionFailsTheRun is the harness's self-test: one overwritten
// parent entry must surface as a failed op and a non-zero exit.
func TestCorruptionFailsTheRun(t *testing.T) {
	for _, name := range []string{"scan2", "grid2d"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWorkload(w.smoke(), runConfig{Seed: 7, Passes: 1, Untraced: true, Corrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 {
			t.Errorf("%s: %d failed ops after corrupting op 0, want 1 (%v)", name, res.Failed, res.Errors)
		}
	}
	w, _ := workloadByName("serve")
	if _, err := runWorkload(w.smoke(), runConfig{Seed: 7, Passes: 1, Untraced: true, Corrupt: true}); err == nil {
		t.Error("serve hands out parent copies; the self-test must refuse it rather than pass silently")
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with: go run . -print-benchmark-json > ../BENCHMARK.json")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer, suiteOnly} {
		for _, d := range defs {
			if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not mention metric %s; refresh its tables with -print-metric-tables", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("metric %s: bound %v above setup_s's, which must be the largest", d.Name, d.Bound)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {90, 37}, {25, 17.5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{40, 10, 30, 20}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must have no percentile")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if got := harmonicMean([]float64{1, 2, 4}); math.Abs(got-12.0/7) > 1e-12 {
		t.Errorf("harmonicMean = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := &spanRec{}
	r.spans = []span{
		{ID: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "run", StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 1, Name: "validate", StartNs: 60, EndNs: 90},
		{ID: 4, Parent: 0, Name: "op", StartNs: 100, EndNs: 130},
	}
	self, count := r.selfNs()
	if self["op"] != 20+30 || self["run"] != 50 || self["validate"] != 30 || count["op"] != 2 {
		t.Errorf("self = %v, count = %v", self, count)
	}
	var none *spanRec
	none.end(none.begin("x", 0)) // a nil recorder records nothing
}

// goldenStacks is a hand-written profile: leaf first, as parseProfile
// returns them.
var goldenStacks = []stack{
	{N: 40, Funcs: []string{"runtime.chanrecv", "numabfs/internal/mpi.(*Proc).take", "numabfs/internal/mpi.(*Proc).sendRecv", "numabfs/internal/collective.(*Group).AllgatherRing", "numabfs/internal/bfs.(*rankState).bottomUpLevel", "numabfs/internal/mpi.(*World).TryRun.func1"}},
	{N: 30, Funcs: []string{"numabfs/internal/bitmap.(*Bitmap).Get", "numabfs/internal/bfs.(*rankState).scan.func1", "numabfs/internal/omp.Team.ForChunks", "numabfs/internal/bfs.(*rankState).bottomUpLevel", "numabfs/internal/mpi.(*World).TryRun.func1"}},
	{N: 10, Funcs: []string{"runtime.mallocgc", "numabfs/internal/bfs.(*rankState).topDownLevel", "numabfs/internal/mpi.(*World).TryRun.func1"}},
	{N: 15, Funcs: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
	{N: 5, Funcs: []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}},
}

func TestAttribute(t *testing.T) {
	sh := attribute(goldenStacks)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if sh.Samples != 100 {
		t.Fatalf("samples = %d", sh.Samples)
	}
	near("mpi self", sh.Self["mpi"], 0.40) // the runtime's time under mpi is mpi's
	near("bitmap self", sh.Self["bitmap"], 0.30)
	near("bfs self", sh.Self["bfs"], 0.10) // allocation under bfs is bfs's
	near("collective self", sh.Self["collective"], 0)
	near("gc", sh.GC, 0.15)
	near("other", sh.Other, 0.05)
	near("mpi incl", sh.Incl["mpi"], 0.80) // every rank goroutine starts in mpi
	near("bfs incl", sh.Incl["bfs"], 0.80)
	near("collective incl", sh.Incl["collective"], 0.40)
	near("omp incl", sh.Incl["omp"], 0.30)
	var self float64
	for _, v := range sh.Self {
		self += v
	}
	near("shares sum", self+sh.GC+sh.Other, 1)
	if got := layerOf("numabfs/internal/graph500.validateTree"); got != "graph500" {
		t.Errorf("layerOf = %q", got)
	}
	if got := layerOf("numabfs.NewRunner"); got != "" {
		t.Errorf("the facade is not a layer, got %q", got)
	}
}

// TestParseProfile encodes a two-sample profile by hand, the way
// runtime/pprof lays it out, and reads it back.
func TestParseProfile(t *testing.T) {
	var pb []byte
	tag := func(b []byte, num, wt int) []byte { return append(b, byte(num<<3|wt)) }
	msg := func(b []byte, num int, body []byte) []byte {
		b = tag(b, num, 2)
		b = append(b, byte(len(body)))
		return append(b, body...)
	}
	varint := func(b []byte, num int, v byte) []byte { return append(tag(b, num, 0), v) }
	strs := []string{"", "numabfs/internal/wire.(*Codec).Encode", "main.caller", "numabfs/internal/wire.Analyze"}
	for id := byte(1); id <= 3; id++ { // function id -> name index id
		pb = msg(pb, 5, varint(varint(nil, 1, id), 2, id))
	}
	// Location 1 is Analyze inlined into Encode; location 2 is the caller.
	loc1 := varint(nil, 1, 1)
	loc1 = msg(loc1, 4, varint(nil, 1, 3))
	loc1 = msg(loc1, 4, varint(nil, 1, 1))
	pb = msg(pb, 4, loc1)
	pb = msg(pb, 4, msg(varint(nil, 1, 2), 4, varint(nil, 1, 2)))
	pb = msg(pb, 2, msg(msg(nil, 1, []byte{1, 2}), 2, []byte{9, 90})) // packed ids and values
	pb = msg(pb, 2, varint(varint(nil, 1, 2), 2, 4))                  // unpacked
	for _, s := range strs {
		pb = msg(pb, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb)
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{N: 9, Funcs: []string{strs[3], strs[1], strs[2]}},
		{N: 4, Funcs: []string{strs[2]}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile must not parse")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "host_op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "host_teps", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "virt_op_ms_p50", Better: "lower", Bound: 0.10, Exact: true}
	tight := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.99, v, v * 1.01, v}}
	}
	wide := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.8, v * 0.9, v * 1.1, v * 1.2}}
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricValue
		want string
	}{
		{"within bound", lower, tight(100), tight(104), "same"},
		{"lower-is-better worsened", lower, tight(100), tight(115), "worse"},
		{"lower-is-better improved", lower, tight(100), tight(90), "better"},
		{"higher-is-better worsened", higher, tight(100), tight(85), "worse"},
		{"higher-is-better improved", higher, tight(100), tight(110), "better"},
		{"noisy", lower, wide(100), wide(104), "unresolved"},
		{"noisy but every sample better", lower, wide(100), wide(50), "better"},
		{"no samples, small change", lower, metricValue{Value: 100}, metricValue{Value: 101}, "same"},
		{"no samples, below the host floor", lower, metricValue{Value: 100}, metricValue{Value: 99.5}, "same"},
		{"no samples, improved", lower, metricValue{Value: 100}, metricValue{Value: 95}, "better"},
		{"exact equal", exact, metricValue{Value: 0.25}, metricValue{Value: 0.25}, "same"},
		{"exact drifted up", exact, metricValue{Value: 0.25}, metricValue{Value: 0.2500001}, "worse"},
		{"exact drifted down", exact, metricValue{Value: 0.25}, metricValue{Value: 0.2499}, "better"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	result := func(p50 float64, digest string, failed int) resultFile {
		e2e := map[string]metricValue{}
		for _, d := range endToEnd {
			e2e[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		e2e["host_op_ms_p50"] = metricValue{Value: p50, Unit: "ms", Samples: []float64{p50, p50}}
		return resultFile{Seed: 1, Workloads: []*workloadResult{{
			Name: "scan2", Attempted: 100, Failed: failed, VirtDigest: digest, EndToEnd: e2e,
		}}}
	}
	base := write("a.json", result(20, "abc", 0))
	for _, c := range []struct {
		name  string
		b     resultFile
		worse bool
		says  string
	}{
		{"same", result(20.5, "abc", 0), false, "same"},
		{"slower", result(30, "abc", 0), true, "worse"},
		{"digest", result(20, "abd", 0), true, "virt_digest differs"},
		{"failures", result(20, "abc", 3), true, "failed_ops_frac"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(base, write(c.name+".json", c.b), &out)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: worse=%v, want %v; output:\n%s", c.name, worse, c.worse, out.String())
		}
	}
	other := result(20, "abc", 0)
	other.Seed = 2
	if _, err := compareFiles(base, write("seed.json", other), &bytes.Buffer{}); err == nil {
		t.Error("results of different seeds must not compare")
	}
}

func TestRunFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 1 {
		t.Errorf("unknown workload: exit %d", code)
	}
	if code := run([]string{"-trace", "2", "-workload", "scan2"}, &out, &errOut); code != 2 {
		t.Errorf("bad -trace: exit %d", code)
	}
	out.Reset()
	if code := run([]string{"-print-benchmark-json"}, &out, &errOut); code != 0 || !json.Valid(out.Bytes()) {
		t.Errorf("-print-benchmark-json: exit %d, valid JSON %v", code, json.Valid(out.Bytes()))
	}
}
