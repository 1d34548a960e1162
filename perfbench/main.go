// Command perfbench is the repository's benchmark. It drives one named
// workload (churn or ingest) through the public dyndbscan API from a
// single process, checks that every answer is correct, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the last
// line of its output:
//
//	perfbench --workload churn --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the repository root names the workloads and metrics;
// perfbench/run.sh builds this program from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dyndbscan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	sp      *spec
	seed    int64
	seconds float64
	trace   bool
	live    int
	setups  int
	opens   int // recoveries timed
	scratch string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	scratch := fs.String("scratch", ".bench_build", "directory for logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := specByName(*name)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	return report(newConfig(sp, *seed, *seconds, *trace == 1, *scratch), stdout, stderr)
}

// liveSet is the number of live points every workload holds, so the work
// per op does not drift with run length.
const liveSet = 100_000

// newConfig returns the configuration of one run at the benchmark's scale.
func newConfig(sp *spec, seed int64, seconds float64, trace bool, scratch string) config {
	cfg := config{
		sp: sp, seed: seed, seconds: seconds, trace: trace, live: liveSet,
		setups: 3, opens: 3, scratch: scratch,
	}
	if cfg.trace {
		cfg.setups, cfg.opens = 1, 1
	}
	return cfg
}

// report executes cfg, prints the result line and returns the exit code.
func report(cfg config, stdout, stderr io.Writer) int {
	out, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if out == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the workload. A non-nil result with a non-nil error is a run
// that completed but failed its correctness gate; a nil result is a run that
// could not complete.
func execute(cfg config, stdout io.Writer) (*result, error) {
	sp := cfg.sp
	dir, err := filepath.Abs(filepath.Join(cfg.scratch, fmt.Sprintf("run-%s-%d-%d", sp.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(sp, cfg.seed, cfg.live, dir)
	printJSON(stdout, map[string]any{"run": map[string]any{
		"workload": sp.name, "why": sp.why, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "live": cfg.live, "clients": sp.clients, "host": host(),
	}})
	heapBase := liveHeap()

	// Set-up: build and load the engine several times; keep the last.
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		d, err := b.setup(filepath.Join(dir, fmt.Sprintf("wal%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
		if i < cfg.setups-1 {
			if err := b.eng.Close(); err != nil {
				return nil, fmt.Errorf("setup Close: %w", err)
			}
			if err := os.RemoveAll(b.walDir); err != nil {
				return nil, err
			}
		}
	}
	if sp.subscribe {
		b.attachSubscriber()
	}
	// heap_mb is taken here, in a state every run reaches with the same work.
	// At the end of a run the engine's heap also holds what it keeps per
	// insert ever made (it grows with the run's op count at a constant live
	// set), so it would follow the host's speed; that figure is printed as
	// heap_end_mb.
	b.eng.Snapshot()
	heap := liveHeap() - heapBase
	measured := time.Duration(cfg.seconds * float64(time.Second))
	// Warm-up: let the hotspot policy, the checkpoint cadence and the heap
	// settle before anything is timed.
	b.phase(min(2*time.Second, measured/5), nil)
	if rec := b.totals(); rec.err != nil {
		return nil, fmt.Errorf("warm-up: %w", rec.err)
	}

	res := &result{Metrics: make(map[string]metric)}
	var rec record
	var elapsed time.Duration
	var lm map[string]metric
	if cfg.trace {
		lm, rec, err = b.traced(measured, filepath.Join(cfg.scratch, "traces", fmt.Sprintf("%s-seed%d.tsv", sp.name, cfg.seed)))
		if err != nil {
			return nil, err
		}
	} else {
		runtime.GC()
		hs0 := b.eng.HotspotStats()
		elapsed = b.phase(measured, nil)
		rec = b.totals()
		if hs1 := b.eng.HotspotStats(); hs1.Enabled {
			// Not a metric: what the split-phase path did in the measured
			// phase, so that a reader of an untraced run can tell whether it
			// was used.
			printJSON(stdout, map[string]any{"hotspot": map[string]any{
				"staged_ratio": ratio(float64(hs1.ReconciledOps-hs0.ReconciledOps)+float64(hs1.StagedOps-hs0.StagedOps), float64(rec.inserts)),
				"reconciles":   hs1.Reconciles - hs0.Reconciles,
				"splits":       hs1.Splits - hs0.Splits,
			}})
		}
	}
	// The live heap at the end: events delivered and a snapshot of the
	// current version built, which the gate needs anyway.
	b.eng.Sync()
	b.eng.Snapshot()
	heapEnd := liveHeap() - heapBase

	if !sp.query && rec.err == nil {
		probe := b.probeQueries(min(5*time.Second, measured/2))
		rec.queryLat = probe.queryLat
		rec.attempted += probe.attempted
		rec.failed += probe.failed
		rec.err = probe.err
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed

	gateErr := rec.err
	var opens []time.Duration
	var rstats dyndbscan.WALStats
	if gateErr == nil {
		opens, rstats, gateErr = b.gate(cfg.opens)
	}
	res.Correct = gateErr == nil

	if cfg.trace && lm != nil {
		lm["recover.replayed"] = metric{Value: float64(rstats.Replayed), Unit: "count", Samples: len(opens)}
		lm["recover.chain_deltas"] = metric{Value: float64(rstats.ChainDeltas), Unit: "count", Samples: len(opens)}
		for _, def := range perLayer {
			m, ok := lm[def.name]
			if !ok {
				continue
			}
			res.Metrics[def.name] = m
			printJSON(stdout, map[string]any{"layer_metric": def.name, "value": m.Value, "unit": m.Unit,
				"samples": m.Samples, "moves": def.moves, "steady": def.steady, "note": def.note})
		}
	} else if !cfg.trace {
		e2e := map[string]metric{
			"setup_s":         {Value: median(setups).Seconds(), Unit: "s", Samples: len(setups)},
			"apply_ops_per_s": {Value: float64(rec.ops) / elapsed.Seconds(), Unit: "1/s", Samples: rec.commits},
			"apply_p50_us":    {Value: us(percentile(rec.applyLat, 50)), Unit: "us", Samples: len(rec.applyLat)},
			"query_p50_us":    {Value: us(percentile(rec.queryLat, 50)), Unit: "us", Samples: len(rec.queryLat)},
			"heap_mb":         {Value: float64(heap) / (1 << 20), Unit: "MB", Samples: 1},
		}
		for _, def := range endToEnd {
			m := e2e[def.name]
			res.Metrics[def.name] = m
			printJSON(stdout, map[string]any{"metric": def.name, "value": m.Value, "unit": m.Unit, "samples": m.Samples})
		}
		for name, ds := range map[string][]time.Duration{"apply": rec.applyLat, "query": rec.queryLat} {
			tail := map[string]float64{"mean": us(mean(ds))}
			for _, p := range []float64{50, 90, 95, 99, 99.9, 100} {
				tail[fmt.Sprintf("p%g", p)] = us(percentile(ds, p))
			}
			printJSON(stdout, map[string]any{"latency_us": name, "samples": len(ds), "tail": tail})
		}
		printJSON(stdout, map[string]any{"info": "error_rate", "value": ratio(float64(rec.failed), float64(rec.attempted)), "unit": "ratio", "samples": rec.attempted})
		printJSON(stdout, map[string]any{"info": "heap_end_mb", "value": float64(heapEnd) / (1 << 20), "unit": "MB", "samples": 1})
		if len(opens) > 0 {
			secs := make([]float64, len(opens))
			for i, d := range opens {
				secs[i] = d.Seconds()
			}
			printJSON(stdout, map[string]any{"info": "recover_s", "value": median(opens).Seconds(), "unit": "s", "samples": len(opens), "each": secs})
		}
	}
	if gateErr != nil {
		return res, fmt.Errorf("%w: %v", errGate, gateErr)
	}
	return res, nil
}

// gate runs the end-of-run correctness checks and times the recoveries; it
// returns the first recovered engine's WALStats.
func (b *bench) gate(opens int) ([]time.Duration, dyndbscan.WALStats, error) {
	if b.sub != nil {
		if err := checkFold(b.eng, b.sub); err != nil {
			return nil, dyndbscan.WALStats{}, err
		}
	}
	ids, pts := b.liveSet()
	if err := checkFinal(b.eng, ids, pts); err != nil {
		return nil, dyndbscan.WALStats{}, err
	}
	dir, n, want, err := b.sealLog()
	if err != nil {
		return nil, dyndbscan.WALStats{}, err
	}
	return b.recoverTimes(dir, opens, n, want)
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// liveHeap returns the bytes of live heap after a collection. The second
// collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func printJSON(w io.Writer, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"error": %q}`, err.Error()))
	}
	fmt.Fprintln(w, string(line))
}

// host describes the machine the run measured.
func host() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
