package sim

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"avdb/internal/chaos"
)

// TestSimHealthy runs a few seeds fault-free and with faults and
// expects every oracle to pass.
func TestSimHealthy(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ticks: 60, Script: []chaos.Step{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("fault-free run violated an invariant: %v", res.Violation)
	}
	if res.Commits == 0 {
		t.Fatal("fault-free run committed nothing")
	}
}

// TestSimBitReproducible runs the same seed twice, independently, and
// requires the full observable schedule — every site's event log, every
// operation outcome, every 2PC apply — to hash identically.
func TestSimBitReproducible(t *testing.T) {
	seeds := []uint64{3, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := Config{Seed: seed, Ticks: 120}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d first run: %v", seed, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d second run: %v", seed, err)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("seed %d: trace hash diverged: %#x vs %#x (events %v vs %v, ops %d vs %d)",
				seed, a.TraceHash, b.TraceHash, a.SiteEvents, b.SiteEvents, a.Ops, b.Ops)
		}
		if a.Violation != nil {
			t.Errorf("seed %d: unexpected violation: %v", seed, a.Violation)
		}
	}
}

// TestSimMintBugCaught injects a deliberate AV-minting bug and requires
// the conservation oracle to catch it and the minimizer to shrink the
// fault script, producing a reproducible failure report.
func TestSimMintBugCaught(t *testing.T) {
	cfg := Config{Seed: 5, Ticks: 80, MintAt: 30, MintSite: 1, MintAmount: 50}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("minted 50 units of AV from nothing and no oracle noticed")
	}
	if res.Violation.Oracle != "no-mint" {
		t.Fatalf("wrong oracle caught the mint: %v", res.Violation)
	}
	minimized, mres, err := Minimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Violation == nil {
		t.Fatal("minimized run no longer fails")
	}
	// The mint does not depend on any injected fault, so the script must
	// shrink to nothing.
	if len(minimized) != 0 {
		t.Fatalf("expected the fault script to minimize away, kept %d steps:\n%s",
			len(minimized), chaos.FormatSteps(minimized))
	}
	report := FormatFailure(cfg.Seed, mres, minimized, len(res.Script))
	for _, want := range []string{"seed 5 FAILED", "no-mint", "minimized fault script", "reproduce:"} {
		if !strings.Contains(report, want) {
			t.Errorf("failure report missing %q:\n%s", want, report)
		}
	}
}

// TestSimSweepSmall sweeps a handful of seeds end to end.
func TestSimSweepSmall(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	failures, err := Sweep(Config{Ticks: 60}, 100, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("seed %d: %v\n%s", f.Seed, f.Violation, f.Report)
	}
}

// TestSimSeedSweepNightly is the CI seed sweep: set AVDB_SIM_SWEEP_SEEDS
// (and optionally AVDB_SIM_SWEEP_START) to run it.
func TestSimSeedSweepNightly(t *testing.T) {
	nStr := os.Getenv("AVDB_SIM_SWEEP_SEEDS")
	if nStr == "" {
		t.Skip("set AVDB_SIM_SWEEP_SEEDS to run the nightly seed sweep")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		t.Fatalf("bad AVDB_SIM_SWEEP_SEEDS %q", nStr)
	}
	start := uint64(1)
	if s := os.Getenv("AVDB_SIM_SWEEP_START"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad AVDB_SIM_SWEEP_START %q", s)
		}
		start = v
	}
	// Sweep the full-replication and sharded configurations under the
	// same seeds and oracles.
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"group-commit", Config{}},
		{"sharded", Config{Sites: 6, Items: 12, Partitions: 16, RF: 2}},
	} {
		failures, err := Sweep(mode.cfg, start, n, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			t.Errorf("[%s] %s", mode.name, f.Report)
		}
	}
}
