// Command avbench sweeps experiment parameters and emits one CSV row
// per configuration, for plotting beyond the paper's single setting.
//
//	avbench -sweep sites      # 3..33 sites
//	avbench -sweep items      # catalog size
//	avbench -sweep initial    # initial stock (AV headroom)
//	avbench -sweep decrease   # retailer demand intensity
//	avbench -sweep passes     # AV gathering passes
//
// It can also snapshot the fast-path micro-benchmarks as JSON (the
// committed BENCH_2.json), the durable/group-commit fast path (the
// committed BENCH_4.json), the read plane's serving numbers (the
// committed BENCH_5.json), or the sharded-cluster scaling cells (the
// committed BENCH_7.json):
//
//	avbench -perf BENCH_2.json
//	avbench -durable BENCH_4.json
//	avbench -reads BENCH_5.json
//	avbench -shard BENCH_7.json
//
// -procs pins GOMAXPROCS for the whole run (recorded in every JSON
// snapshot).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"avdb/internal/experiment"
)

func main() {
	var (
		sweep    = flag.String("sweep", "sites", "sites | items | initial | decrease | passes")
		updates  = flag.Int("updates", 5000, "updates per configuration")
		seed     = flag.Uint64("seed", 1, "workload seed")
		out      = flag.String("o", "", "output file (default stdout)")
		perf     = flag.String("perf", "", `write a perf snapshot (JSON) to this file ("-" for stdout) instead of sweeping`)
		durable  = flag.String("durable", "", `write a durable-path (group commit) snapshot (JSON) to this file ("-" for stdout) instead of sweeping`)
		reads    = flag.String("reads", "", `write a read-plane snapshot (JSON) to this file ("-" for stdout) instead of sweeping`)
		readFrac = flag.Float64("read-frac", 0.9, "fraction of reads in the -reads mixed workload")
		readOps  = flag.Int("read-ops", 5000, "mixed operations in the -reads workload")
		shard    = flag.String("shard", "", `write the sharded-cluster scaling snapshot (JSON) to this file ("-" for stdout) instead of sweeping`)
		shardKey = flag.Int("shard-keys", 100000, "key-space size for the -shard workload")
		shardOps = flag.Int("shard-ops", 4000, "updates per -shard cell")
		procs    = flag.Int("procs", 0, "pin GOMAXPROCS for the run (0 = runtime default)")
	)
	flag.Parse()

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	if *perf != "" {
		if err := runPerf(*perf); err != nil {
			fmt.Fprintln(os.Stderr, "avbench:", err)
			os.Exit(1)
		}
		return
	}
	if *durable != "" {
		if err := runDurable(*durable); err != nil {
			fmt.Fprintln(os.Stderr, "avbench:", err)
			os.Exit(1)
		}
		return
	}
	if *reads != "" {
		if err := runReads(*reads, *readFrac, *readOps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "avbench:", err)
			os.Exit(1)
		}
		return
	}
	if *shard != "" {
		if err := runShard(*shard, *shardKey, *shardOps, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "avbench:", err)
			os.Exit(1)
		}
		return
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "avbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	base := experiment.Config{Updates: *updates, Seed: *seed, Checkpoint: *updates / 5}
	if err := run(w, *sweep, base); err != nil {
		fmt.Fprintln(os.Stderr, "avbench:", err)
		os.Exit(1)
	}
}

type point struct {
	x        string
	proposed *experiment.ProposedResult
	conv     *experiment.ConventionalResult
}

func run(w *os.File, sweep string, base experiment.Config) error {
	var points []point
	addPoint := func(x string, cfg experiment.Config) error {
		prop, err := experiment.RunProposed(cfg)
		if err != nil {
			return fmt.Errorf("%s=%s proposed: %w", sweep, x, err)
		}
		conv, err := experiment.RunConventional(cfg)
		if err != nil {
			return fmt.Errorf("%s=%s conventional: %w", sweep, x, err)
		}
		points = append(points, point{x: x, proposed: prop, conv: conv})
		return nil
	}

	switch sweep {
	case "sites":
		for _, n := range []int{3, 5, 9, 17, 33} {
			cfg := base
			cfg.Sites = n
			if err := addPoint(fmt.Sprint(n), cfg); err != nil {
				return err
			}
		}
	case "items":
		for _, n := range []int{10, 50, 100, 500, 1000} {
			cfg := base
			cfg.Items = n
			if err := addPoint(fmt.Sprint(n), cfg); err != nil {
				return err
			}
		}
	case "initial":
		for _, n := range []int64{100, 300, 1000, 3000, 10000} {
			cfg := base
			cfg.InitialAmount = n
			if err := addPoint(fmt.Sprint(n), cfg); err != nil {
				return err
			}
		}
	case "decrease":
		for _, f := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
			cfg := base
			cfg.RetailerDecreaseFrac = f
			if err := addPoint(fmt.Sprintf("%.2f", f), cfg); err != nil {
				return err
			}
		}
	case "passes":
		for _, p := range []int{1, 2, 3, 5} {
			cfg := base
			cfg.Passes = p
			if err := addPoint(fmt.Sprint(p), cfg); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown sweep %q", sweep)
	}

	fmt.Fprintf(w, "%s,proposed_corr,conventional_corr,reduction_pct,local_frac,failures,transfer_rounds\n", sweep)
	for _, p := range points {
		red := 0.0
		if c := p.conv.Total.Last(); c > 0 {
			red = 100 * (1 - float64(p.proposed.Total.Last())/float64(c))
		}
		fmt.Fprintf(w, "%s,%d,%d,%.1f,%.3f,%d,%d\n",
			p.x, p.proposed.Total.Last(), p.conv.Total.Last(), red,
			p.proposed.LocalFraction, p.proposed.Failures, p.proposed.TransferRounds)
	}
	return nil
}
