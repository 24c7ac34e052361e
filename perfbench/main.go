// Command perfbench is the repository's end-to-end benchmark. It runs the
// real cstream-serve binary as its own process, drives it over loopback from
// this single load-generator process (two connections, GOMAXPROCS at most
// two, at most eight pushes in flight), checks every reply against an output
// oracle, and prints every metric by name with its unit. BENCHMARK.json at
// the repository root names the workloads and metrics and fixes their
// bounds.
//
// Run it from the repository root through its wrapper, which builds both
// binaries from source under .bench_build:
//
//	bash perfbench/run.sh --workload ingest-small --seed 1 --seconds 30 --trace 0
//
// The seed only builds the payload pool (internal/dataset generators); the
// server always runs with seed 1 on the simulated rk3399 and every session
// uses the bronze class. One run has four phases:
//
//   - set-up: spawn the server and open every session, nine times over;
//     setup_s is the median time from spawn to the last open acknowledged;
//   - warm-up, untimed, one second of closed-loop pushes;
//   - saturation, half of --seconds: a closed loop, each session pushing
//     again as soon as its reply arrives. throughput_mibs (raw input
//     acknowledged and verified) and cpu_ms_per_mib (server user+system CPU
//     from /proc) are medians over one-second windows;
//   - paced, the other half: an open loop at the workload's fixed offered
//     rate, each session's arrivals periodic and the sessions staggered
//     evenly over one period with a seeded phase. Latency runs from the time
//     a push was due, so a stall is charged to every push queued behind it.
//     push_p50_ms and push_p90_ms are taken per session shape (kernel) as
//     medians over one-second windows and averaged over the shapes.
//
// Every reply is compared byte for byte with the segments the pkg/cstream
// library path produces for the same payload, and one reply in 32 is also
// decoded; any mismatch, error or push slower than 5 s is a failed op and
// the command exits non-zero. With a segment sink (durable-mixed) one reader
// goroutine decodes every sealed segment beside the writers of the
// saturation phase, and readback_mibs is its raw MiB per second of reading;
// without one it is the decoder rebuilding the verified replies once per
// window of the paced phase.
//
// With --trace 1 the same run is followed by a serial replay of the payload
// pool through each layer's public entry point, one layer after another; the
// run then prints the per-layer metrics, the adjacent-layer deltas and the
// tracing overhead, and writes the spans as Chrome trace-event JSON
// (Perfetto opens it) under the work directory.
//
// With --repeat N the command runs the workload N times, each with the next
// seed, and prints each metric's median, quartiles and spread against its
// bound in BENCHMARK.json: the steadiness report.
//
// The last line of standard output is always one JSON object with the keys
// correct, attempted, failed and metrics; a line starting with "record"
// before it stamps the run with the host (CPU model, nproc, GOMAXPROCS of
// both processes, Go version, commit) and the run's shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	work     string
	repeat   int
}

// budget bounds one run: past it every child process is killed and the run
// fails, so the command always exits within the contract's 180 s.
const budget = 170 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: seeds the dataset generators that build the payload pool")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds, split evenly between the saturation and paced phases")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced layer replay and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.server, "server", "", "path to the cstream-serve binary")
	flag.StringVar(&o.work, "work", "", "work directory for segment trees, traces and run records")
	flag.IntVar(&o.repeat, "repeat", 0, "steadiness report: run the workload this many times with consecutive seeds")
	flag.Parse()
	os.Exit(realMain(o))
}

func realMain(o options) int {
	if _, err := workloadByName(o.workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.server == "" || o.work == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --server, --work, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if o.repeat > 0 {
		return repeatRuns(o)
	}
	runtime.GOMAXPROCS(generatorProcs())

	procs := &supervisor{procs: map[*serverProc]bool{}}
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; killing the server\n", budget)
		procs.killAll()
		os.Exit(1)
	})
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		procs.killAll()
		os.Exit(1)
	}()

	res, err := run(o, procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// generatorProcs is the load generator's GOMAXPROCS: at most two.
func generatorProcs() int { return min(2, runtime.NumCPU()) }

// supervisor tracks the server processes a run has started, so a watchdog
// or a signal can stop them all.
type supervisor struct {
	mu    sync.Mutex
	procs map[*serverProc]bool
}

func (s *supervisor) add(p *serverProc) {
	s.mu.Lock()
	s.procs[p] = true
	s.mu.Unlock()
}

func (s *supervisor) remove(p *serverProc) {
	s.mu.Lock()
	delete(s.procs, p)
	s.mu.Unlock()
}

func (s *supervisor) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.procs {
		p.kill()
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(prefix string) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("%s%-32s %14.6g %s\n", prefix, n, m.Value, m.Unit)
	}
}
