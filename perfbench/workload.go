package main

import (
	"strconv"

	"avdb/internal/rng"
	"avdb/internal/workload"
)

// op is one generated client request.
type op struct {
	read  bool
	key   string
	delta int64
}

// clientSpec places one closed-loop client connection on a site and
// gives it its request stream.
type clientSpec struct {
	site int
	// gen builds the client's generator over the workload's catalog from
	// the client's own seed; a seed fixes every request sent.
	gen func(w *workloadSpec, seed uint64) (func() op, error)
}

// workloadSpec is one traffic mix plus the catalog the nodes seed. The
// nodes receive only the catalog flags and the generated requests.
type workloadSpec struct {
	name string
	why  string

	items      int
	initial    int64
	nonRegular float64 // leading fraction of the catalog without AV (2PC keys)
	partitions int     // 0 = full replication
	rf         int

	clients []clientSpec
}

// nodeFlags are the workload's avnode catalog and placement flags; every
// node gets the same ones so the seeded catalogs agree.
func (w *workloadSpec) nodeFlags() []string {
	f := []string{
		"-seed-items", strconv.Itoa(w.items),
		"-seed-initial", strconv.FormatInt(w.initial, 10),
	}
	if w.nonRegular > 0 {
		f = append(f, "-seed-nonregular", strconv.FormatFloat(w.nonRegular, 'f', -1, 64))
	}
	if w.partitions > 0 {
		f = append(f, "-partitions", strconv.Itoa(w.partitions), "-rf", strconv.Itoa(w.rf))
	}
	return f
}

// nonRegularCount mirrors avnode's seeding rule: the first
// round(nonRegular*items) products are non-regular.
func (w *workloadSpec) nonRegularCount() int {
	return int(w.nonRegular*float64(w.items) + 0.5)
}

// stockLimit is far above anything a run can spend, so AV never runs
// short on the workloads that measure a path other than the transfer.
const stockLimit = 1_000_000_000_000

// The three workloads. Each stresses a different layer; the reasons are
// the ones recorded in BENCHMARK.json and perfbench/NOTES.md.
var workloads = map[string]*workloadSpec{
	// The paper's zero-communication path: both clients decrement on one
	// retailer site with AV to spare. The only workload where two commits
	// at one site could share an fsync; network and 2PC are idle.
	"local": {
		name: "local", items: 1024, initial: stockLimit,
		why: "delay-local updates at one site: zero communication, fsync-bound",
		clients: []clientSpec{
			{site: 1, gen: uniformDecrements},
			{site: 1, gen: uniformDecrements},
		},
	},
	// The paper's heterogeneous SCM mix: a maker increments, a retailer
	// reads and decrements, a quarter of the catalog is non-regular and
	// goes through 2PC, and AV flows from the maker to the retailer.
	"scm": {
		name: "scm", items: 1024, initial: 1000, nonRegular: 0.25,
		why: "SCM roles: AV transfers, 2PC on non-regular keys and reads beside writes",
		clients: []clientSpec{
			{site: 0, gen: makerMix},
			{site: 1, gen: retailerMix},
		},
	},
	// Partial replication over a 25x larger catalog with Zipfian hot
	// keys: about a third of updates are forwarded to a replica. The
	// catalog stops at 25k products because seeding is one durable
	// commit per record and dominates a run's time and disk load (see
	// NOTES.md).
	"sharded": {
		name: "sharded", items: 25_000, initial: stockLimit, partitions: 16, rf: 2,
		why: "16 partitions, rf 2, 25k Zipf keys: routed updates and a large working set",
		clients: []clientSpec{
			{site: 1, gen: zipfDecrements},
			{site: 2, gen: zipfDecrements},
		},
	},
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"local", "scm", "sharded"}

// uniformDecrements sends UPDATE k -1 on uniform keys.
func uniformDecrements(w *workloadSpec, seed uint64) (func() op, error) {
	keys := workload.Keys(w.items)
	r := rng.New(seed)
	return func() op { return op{key: keys[r.Intn(len(keys))], delta: -1} }, nil
}

// makerMix is the SCM maker: 90% increments U[1,200] on regular keys,
// 10% on non-regular keys (which take 2PC).
func makerMix(w *workloadSpec, seed uint64) (func() op, error) {
	keys, nonReg := workload.Keys(w.items), w.nonRegularCount()
	r := rng.New(seed)
	return func() op {
		d := r.Range(1, 200)
		if r.Intn(10) == 0 {
			return op{key: keys[r.Intn(nonReg)], delta: d}
		}
		return op{key: keys[nonReg+r.Intn(len(keys)-nonReg)], delta: d}
	}, nil
}

// retailerMix is the SCM retailer: 50% READs on any key, 40% updates of
// U[1,100] units on regular keys, 10% on non-regular keys. Each update
// is a sale
// (decrement) unless the retailer's net sales of that key in this
// stream would pass three quarters of its initial stock; then it is a
// return (increment).
//
// The return rule keeps every stock at a quarter of its initial value
// or more, whatever the clients' relative speeds: one stream runs
// against a cluster and the maker only adds. So no update is refused
// for stock, and a transfer's halving grants (strategy.GrantHalf, three
// passes) have ample AV to find the at most 100 units a sale needs.
// Without the
// rule a key that the maker happened to restock rarely sometimes ran
// dry, and its sale was refused.
func retailerMix(w *workloadSpec, seed uint64) (func() op, error) {
	keys, nonReg := workload.Keys(w.items), w.nonRegularCount()
	r := rng.New(seed)
	sold := make([]int64, len(keys))
	limit := w.initial * 3 / 4
	update := func(i int) op {
		d := r.Range(1, 100)
		if sold[i]+d > limit {
			sold[i] -= d
			return op{key: keys[i], delta: d}
		}
		sold[i] += d
		return op{key: keys[i], delta: -d}
	}
	return func() op {
		switch c := r.Intn(10); {
		case c < 5:
			return op{read: true, key: keys[r.Intn(len(keys))]}
		case c < 9:
			return update(nonReg + r.Intn(len(keys)-nonReg))
		default:
			return update(r.Intn(nonReg))
		}
	}, nil
}

// zipfDecrements sends UPDATE k -1 on keys drawn from the repo's Zipf
// generator (theta 0.99); only its key stream is used.
func zipfDecrements(w *workloadSpec, seed uint64) (func() op, error) {
	z, err := workload.NewZipf(workload.ZipfConfig{
		SCMConfig: workload.SCMConfig{Sites: numSites, Keys: workload.Keys(w.items), InitialAmount: w.initial, Seed: seed},
		Theta:     0.99,
	})
	if err != nil {
		return nil, err
	}
	return func() op { return op{key: z.Next().Key, delta: -1} }, nil
}

// clientSeed derives client i's stream seed from the run seed.
func clientSeed(seed uint64, i int) uint64 {
	return rng.New(seed ^ uint64(i+1)*0x9E3779B97F4A7C15).Uint64()
}
