package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"numabfs/internal/experiments"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
)

func TestFigKeys(t *testing.T) {
	keys := figKeys()
	if len(keys) != len(experiments.Figures)+2 {
		t.Fatalf("keys = %v", keys)
	}
	seen := make(map[string]bool)
	for _, k := range keys {
		if k == "" || seen[k] {
			t.Fatalf("empty or duplicate key in %v", keys)
		}
		seen[k] = true
	}
	for _, want := range []string{"11", "algcmp", "table1", "all", "overlap", "abl-overlap"} {
		if !seen[want] {
			t.Errorf("missing key %q", want)
		}
	}
}

func TestUnknownFigs(t *testing.T) {
	if got := unknownFigs([]string{"11", "all", "table1"}); got != nil {
		t.Fatalf("valid keys flagged: %v", got)
	}
	got := unknownFigs([]string{"11", "bogus", "7", "levels"})
	if !reflect.DeepEqual(got, []string{"bogus", "7"}) {
		t.Fatalf("unknownFigs = %v, want [bogus 7]", got)
	}
	// The new overlap figures validate; their typos are flagged for the
	// exit-2 path, which prints the full known-figure list.
	if got := unknownFigs([]string{"overlap", "abl-overlap"}); got != nil {
		t.Fatalf("overlap keys flagged: %v", got)
	}
	if got := unknownFigs([]string{"overlp"}); !reflect.DeepEqual(got, []string{"overlp"}) {
		t.Fatalf("unknownFigs(overlp) = %v", got)
	}
}

func TestValidateObsFlags(t *testing.T) {
	valid := []obsFlags{
		{},
		{metrics: true},
		{timeline: "t.jsonl"},
		{metrics: true, timeline: "t.jsonl"},
		{benchCheck: true},
	}
	for _, f := range valid {
		if errs := validateObsFlags(f); errs != nil {
			t.Errorf("valid combo %+v rejected: %v", f, errs)
		}
	}
	invalid := []obsFlags{
		{benchCheck: true, timeline: "t.jsonl"},
		{benchCheck: true, metrics: true},
	}
	for _, f := range invalid {
		if errs := validateObsFlags(f); len(errs) == 0 {
			t.Errorf("invalid combo %+v accepted", f)
		}
	}
	// Each distinct problem reports its own line, so a doubly bad
	// invocation prints both.
	errs := validateObsFlags(obsFlags{metrics: true, timeline: "t.jsonl", benchCheck: true})
	if len(errs) != 2 {
		t.Fatalf("want 2 errors, got %d: %v", len(errs), errs)
	}
}

func TestDriverForTimeline(t *testing.T) {
	if d := driverFor("timeline"); d == nil {
		t.Fatal("timeline driver not registered")
	}
}

func TestDriverForOverlap(t *testing.T) {
	for _, key := range []string{"overlap", "abl-overlap"} {
		if d := driverFor(key); d == nil {
			t.Fatalf("%s driver not registered", key)
		}
	}
}

func TestDriverForMSBFS(t *testing.T) {
	for _, key := range []string{"msbfs", "msbfs-load"} {
		if d := driverFor(key); d == nil {
			t.Fatalf("%s driver not registered", key)
		}
	}
	if got := unknownFigs([]string{"msbfs", "msbfs-load"}); got != nil {
		t.Fatalf("msbfs keys flagged: %v", got)
	}
}

func TestValidateBatchFlags(t *testing.T) {
	valid := []batchFlags{
		{batch: 64, figs: []string{"9"}}, // defaults are inert without the figs
		{batch: 64, figs: []string{"msbfs"}},
		{batch: 1, batchSet: true, figs: []string{"msbfs"}},
		{batch: 32, fillTimeoutNs: 5e6, batchSet: true, fillSet: true, figs: []string{"msbfs-load"}},
		{batch: 64, fillTimeoutNs: 1e6, fillSet: true, figs: []string{"all"}},
		{batch: 16, batchSet: true, figs: []string{"9", "msbfs-load"}},
	}
	for _, f := range valid {
		if errs := validateBatchFlags(f); errs != nil {
			t.Errorf("valid combo %+v rejected: %v", f, errs)
		}
	}
	invalid := []batchFlags{
		{batch: 0, figs: []string{"msbfs"}},
		{batch: 65, figs: []string{"msbfs"}},
		{batch: -3, figs: []string{"msbfs-load"}},
		{batch: 64, fillTimeoutNs: -1, figs: []string{"msbfs-load"}},
		{batch: 32, batchSet: true, figs: []string{"9"}},                          // -batch without a consumer fig
		{batch: 64, fillTimeoutNs: 1e6, fillSet: true, figs: []string{"overlap"}}, // -fill-timeout-ns without a consumer fig
	}
	for _, f := range invalid {
		if errs := validateBatchFlags(f); len(errs) == 0 {
			t.Errorf("invalid combo %+v accepted", f)
		}
	}
	// Each distinct problem reports its own line.
	errs := validateBatchFlags(batchFlags{
		batch: 100, batchSet: true, fillTimeoutNs: -2, fillSet: true, figs: []string{"11"},
	})
	if len(errs) != 4 {
		t.Fatalf("want 4 errors, got %d: %v", len(errs), errs)
	}
}

func TestDriverForLoss(t *testing.T) {
	if d := driverFor("loss"); d == nil {
		t.Fatal("loss driver not registered")
	}
	if d := driverFor("bogus"); d != nil {
		t.Fatalf("bogus key resolved to %q", d.Key)
	}
}

func TestTableDiff(t *testing.T) {
	mk := func() *experiments.Table {
		tab := &experiments.Table{Name: "X", Columns: []string{"a", "b"}}
		tab.AddRow("r1", 1.0, 2.5e9)
		tab.AddRow("r2", 0, -3.25)
		return tab
	}
	if d := tableDiff(mk(), mk()); d != "" {
		t.Fatalf("identical tables diff: %s", d)
	}
	// Drift within 1e-9 relative tolerance passes; beyond it fails.
	close := mk()
	close.Rows[0].Values[1] *= 1 + 1e-12
	if d := tableDiff(mk(), close); d != "" {
		t.Fatalf("sub-tolerance drift flagged: %s", d)
	}
	far := mk()
	far.Rows[0].Values[1] *= 1 + 1e-6
	if d := tableDiff(mk(), far); d == "" {
		t.Fatal("value drift not flagged")
	}
	relabeled := mk()
	relabeled.Rows[1].Label = "renamed"
	if d := tableDiff(mk(), relabeled); d == "" {
		t.Fatal("label change not flagged")
	}
	short := mk()
	short.Rows = short.Rows[:1]
	if d := tableDiff(mk(), short); d == "" {
		t.Fatal("missing row not flagged")
	}
	if d := tableDiff(mk(), nil); d == "" {
		t.Fatal("nil table not flagged")
	}
}

// TestBenchCheckRoundTrip: a baseline written from a live run must pass
// its own check, and a perturbed copy must fail with a nonzero drift
// count.
func TestBenchCheckRoundTrip(t *testing.T) {
	spec := experiments.Spec{BaseScale: 12, Roots: 1}
	tab, err := experiments.Fig10(spec)
	if err != nil {
		t.Fatal(err)
	}
	bf := benchFile{Scale: spec.BaseScale, Roots: spec.Roots,
		Records: []benchRecord{{Fig: "10", HostNs: 1, Table: tab}}}
	data, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	drifted, err := benchCheck(path, []string{"all"}, false, 4, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if drifted != 0 {
		t.Fatalf("self-check drifted %d experiment(s)", drifted)
	}

	// The baseline's 1ns host time makes any rerun blow a x1.5 budget:
	// the budget path must fail even though every value matches.
	if _, err := benchCheck(path, []string{"all"}, false, 4, nil, 1.5); err == nil {
		t.Fatal("blown host budget not flagged")
	}

	// The check must honor the parallel width and still ledger its cells.
	led := experiments.NewLedger()
	if _, err := benchCheck(path, []string{"all"}, false, 8, led, 0); err != nil {
		t.Fatal(err)
	}
	if len(led.Cells()) == 0 {
		t.Fatal("bench-check recorded no ledger cells")
	}

	bf.Records[0].Table.Rows[0].Values[0] *= 1.01
	data, _ = json.Marshal(bf)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	drifted, err = benchCheck(path, []string{"10"}, false, 4, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if drifted != 1 {
		t.Fatalf("perturbed baseline drifted %d, want 1", drifted)
	}
}

func TestLoadFaultPlanStrict(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name    string
		content string
		wantErr string // substring of the error; "" means the plan must load
	}{
		{"valid crash plan",
			`{"crashes": [{"rank": 2, "at_ns": 5e6, "permanent": true}]}`,
			""},
		{"removed tuning field",
			`{"heartbeat_period_ns": 2.5e5, "crashes": [{"rank": 0, "at_ns": 1}]}`,
			`unknown field "heartbeat_period_ns"`},
		{"malformed json",
			`{"crashes": [`,
			"unexpected EOF"},
		{"unknown top-level field",
			`{"crashs": [{"rank": 2, "at_ns": 5e6}]}`,
			`unknown field "crashs"`},
		{"unknown crash field",
			`{"crashes": [{"rank": 2, "at_ns": 5e6, "permanant": true}]}`,
			`unknown field "permanant"`},
		{"trailing data",
			`{"crashes": []} {"crashes": []}`,
			"trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := loadFaultPlan(write(strings.ReplaceAll(tc.name, " ", "_")+".json", tc.content))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(plan.Crashes) == 0 {
					t.Fatal("valid plan decoded no crashes")
				}
				return
			}
			if err == nil {
				t.Fatalf("decoded without error, plan = %+v", plan)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := loadFaultPlan(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestREADMEFaultPlans decodes both ```json fault plans in README.md
// through -fault's loader and injects them into a two-node world, so
// the documented plans cannot drift from fault.Plan.
func TestREADMEFaultPlans(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(readme), "```json\n")[1:]
	if len(blocks) != 2 {
		t.Fatalf("README has %d json blocks, want the 2 fault plans", len(blocks))
	}
	cfg := machine.TableI()
	cfg.Nodes = 2
	w := mpi.NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
	for i, b := range blocks {
		end := strings.Index(b, "```")
		if end < 0 {
			t.Fatalf("json block %d is not closed", i)
		}
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, []byte(b[:end]), 0o644); err != nil {
			t.Fatal(err)
		}
		plan, err := loadFaultPlan(path)
		if err != nil {
			t.Fatalf("README plan %d: %v", i, err)
		}
		if len(plan.Loss)+len(plan.Crashes) == 0 {
			t.Errorf("README plan %d decoded no events: %+v", i, plan)
		}
		if err := w.InjectFaults(*plan); err != nil {
			t.Errorf("README plan %d: %v", i, err)
		}
	}
}
