package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Load shape shared by every workload (see README.md): closed loop,
// fixed operation counts, a discarded warm-up round plus measuredRounds
// equal rounds with the twins alternating round by round, the rounds'
// totals reported.
const (
	measuredRounds = 10
	warmupRounds   = 1
	setupRepeats   = 3 // set-ups per untraced run; setup_s is their median
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // size of the measured phase on the reference host
	scale   float64 // multiplies every count and data size (tests use 0.01)
	traced  bool
	workDir string // scratch space for databases; removed afterwards
	outDir  string // where BENCH.json and trace files go
	tamper  bool   // test-only: corrupt one row before verify's first op
}

// ops sizes an operation count that should take perSecond*seconds on
// the reference host.
func (c *config) ops(perSecond float64, min int) int {
	n := int(math.Round(perSecond * c.seconds * c.scale))
	if n < min {
		n = min
	}
	return n
}

// rows sizes a data set (independent of -seconds, so set-up time is).
func (c *config) rows(n, min int) int {
	v := int(math.Round(float64(n) * c.scale))
	if v < min {
		v = min
	}
	return v
}

// opResult is what one operation reports back to the harness.
type opResult struct {
	work int           // work units completed (transactions, rows, ...)
	dur  time.Duration // set only by self-timed operations
	err  error
}

// variant is one twin under measurement: the ledger database, its
// regular-table counterpart, or (traced run) an untraced or
// metrics-disabled copy of the ledger twin used to price the tracing and
// the metrics registry.
type variant struct {
	name    string
	st      *store
	clients []*client
	// ops[i] runs client i's next operation.
	ops []func(c *client) opResult
	// selfTimed operations time themselves (and open their own root
	// span): they do untimed preparation, such as copying a crash image.
	// A round then lasts the sum of the reported durations.
	selfTimed bool
	// opsMult multiplies the run's operations per round for this variant
	// (0 means 1): a twin whose operation is far cheaper runs more of
	// them, so that its time per operation is measured as well.
	opsMult int

	rounds []roundStat
	lat    [][]int64 // per client, measured rounds only
	errs   []string  // first few failures, for the report
}

type roundStat struct {
	wall           time.Duration
	work, ops, bad int64
}

func (v *variant) recorders() []*recorder {
	var out []*recorder
	for _, c := range v.clients {
		if c.rec != nil {
			out = append(out, c.rec)
		}
	}
	return out
}

func (v *variant) gens() []*gen {
	out := make([]*gen, len(v.clients))
	for i, c := range v.clients {
		out[i] = c.g
	}
	return out
}

// run is a workload set up and ready to measure.
type run struct {
	// variants[0] is the ledger twin every reported number describes;
	// variants[1] is its regular twin. The traced run may add more.
	variants    []*variant
	opsPerRound int    // per client, per round
	workUnit    string // what work_per_s counts
	counts      map[string]int

	// buildUserBytes/buildDirBytes, when set, make write_amp describe
	// the set-up build (workloads whose measured phase writes nothing).
	buildUserBytes, buildDirBytes int64

	// beforeHeap runs after the rounds, before the heap is measured;
	// recover uses it to leave one recovered database open.
	beforeHeap func() error
	// extras adds workload-specific per-layer metrics (traced run).
	extras func(m metricSet) error
	// kernel describes the workload's rows and sizes to the layer kernels.
	kernel kernelParams

	closers []func()
}

// opsFor is how many operations each client of v runs per round.
func (r *run) opsFor(v *variant) int {
	if v.opsMult > 1 {
		return r.opsPerRound * v.opsMult
	}
	return r.opsPerRound
}

func (r *run) ledger() *variant  { return r.variants[0] }
func (r *run) regular() *variant { return r.variants[1] }

func (r *run) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// env is what a workload's set-up gets.
type env struct {
	cfg    *config
	dir    string // fresh, empty
	traced bool
}

// workload is one of the benchmark's six.
type workload struct {
	name  string
	why   string
	setup func(e *env) (*run, error)
}

// runRound drives every client of v through n operations, closed loop,
// and records the round.
func runRound(v *variant, n int, measured bool) {
	var wg sync.WaitGroup
	stats := make([]roundStat, len(v.clients))
	errs := make([][]string, len(v.clients))
	start := time.Now()
	for i, c := range v.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			st := &stats[i]
			for k := 0; k < n; k++ {
				var res opResult
				var d time.Duration
				if v.selfTimed {
					res = v.ops[i](c)
					d = res.dur
					st.wall += d
				} else {
					t0 := time.Now()
					if c.rec != nil {
						c.rec.beginOp()
					}
					res = v.ops[i](c)
					if c.rec != nil {
						c.rec.endOp()
					}
					d = time.Since(t0)
				}
				st.ops++
				if res.err != nil {
					st.bad++
					if len(errs[i]) < 3 {
						errs[i] = append(errs[i], fmt.Sprintf("%s client %d: %v", v.name, i, res.err))
					}
					continue
				}
				st.work += int64(res.work)
				if measured {
					v.lat[i] = append(v.lat[i], int64(d))
				}
			}
		}(i, c)
	}
	wg.Wait()
	total := roundStat{wall: time.Since(start)}
	if v.selfTimed {
		total.wall = 0
	}
	for i, st := range stats {
		total.wall += st.wall
		total.work += st.work
		total.ops += st.ops
		total.bad += st.bad
		v.errs = append(v.errs, errs[i]...)
	}
	if measured {
		v.rounds = append(v.rounds, total)
	} else {
		// Failures in the warm-up round still count against the run.
		v.rounds = append(v.rounds, roundStat{ops: total.ops, bad: total.bad})
	}
}

// measurePhase runs the warm-up and the measured rounds, alternating
// the variants round by round so that drift (heap growth, a noisy
// neighbour) lands on every twin alike and cancels in their ratio.
//
// warmedUp is called once the warm-up is over and before the first
// measured round: counts read then and after the phase cover exactly the
// measured rounds.
func measurePhase(r *run, warmedUp func()) {
	for _, v := range r.variants {
		v.lat = make([][]int64, len(v.clients))
		for i := range v.lat {
			v.lat[i] = make([]int64, 0, measuredRounds*r.opsFor(v))
		}
	}
	for round := 0; round < warmupRounds+measuredRounds; round++ {
		measured := round >= warmupRounds
		if round == warmupRounds {
			for _, v := range r.variants {
				for _, rec := range v.recorders() {
					rec.reset()
				}
			}
			warmedUp()
		}
		for _, v := range r.variants {
			// Collect before every round, untimed: each round then starts
			// from the same point of the collector's cycle, so how much
			// collection a round pays for depends on the work it does and
			// not on where the previous round happened to stop.
			runtime.GC()
			runRound(v, r.opsFor(v), measured)
		}
	}
}

// measuredStats are a variant's measured rounds, warm-up excluded.
func (v *variant) measuredStats() []roundStat {
	return v.rounds[warmupRounds:]
}

func (v *variant) attempted() (ops, bad int64) {
	for _, r := range v.rounds {
		ops += r.ops
		bad += r.bad
	}
	return
}

// workPerSecond is the measured rounds' work over their time. The
// rounds are summed, not ranked: they differ systematically (the heap
// grows, so later rounds carry more collection), which makes a median
// jump between rounds from run to run while the total stays put
// (README.md, "Steadiness").
func (v *variant) workPerSecond() float64 {
	var work int64
	for _, r := range v.measuredStats() {
		work += r.work
	}
	if d := v.totalWall(); d > 0 {
		return float64(work) / d.Seconds()
	}
	return 0
}

// latencies returns every measured sample of v, sorted.
func (v *variant) latencies() []int64 {
	var all []int64
	for _, l := range v.lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// timeRatio is a's measured time per operation over b's. The twins'
// rounds alternate, so slow drift of the host or the heap lands on both
// and cancels in the ratio.
func timeRatio(a, b *variant) float64 {
	pa, pb := a.perOp(), b.perOp()
	if pb == 0 {
		return 0
	}
	return pa / pb
}

// perOp is the variant's measured time per operation, in seconds.
func (v *variant) perOp() float64 {
	var ops int64
	for _, r := range v.measuredStats() {
		ops += r.ops
	}
	if ops == 0 {
		return 0
	}
	return v.totalWall().Seconds() / float64(ops)
}

// totalWall sums a variant's measured round times.
func (v *variant) totalWall() time.Duration {
	var d time.Duration
	for _, r := range v.measuredStats() {
		d += r.wall
	}
	return d
}

// liveHeapMB is HeapAlloc after two collections, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// freshDir creates an empty directory under the work dir.
func freshDir(cfg *config, name string) (string, error) {
	dir := filepath.Join(cfg.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// equalRowCounts compares the twins' per-table row counts.
func equalRowCounts(a, b *store) []string {
	var bad []string
	ac, bc := a.rowCounts(), b.rowCounts()
	for name, n := range ac {
		if m, ok := bc[name]; !ok || m != n {
			bad = append(bad, fmt.Sprintf("table %s: ledger twin has %d rows, regular twin %d", name, n, m))
		}
	}
	sort.Strings(bad)
	return bad
}
