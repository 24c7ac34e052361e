package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

const (
	// setupRuns is how many times a run sets the server up; setup_s is the
	// median.
	setupRuns = 9
	warmup    = time.Second
	// sampleEvery: one reply in this many is also decoded back to its payload.
	sampleEvery = 32
	// window splits the measured phases: throughput, CPU per MiB and the
	// paced latency percentiles are medians over windows, so a transient
	// disturbance of the shared host moves one window, not the run.
	window           = time.Second
	minWindowSamples = 10
)

// fleet is one server process with the workload's sessions open on it.
type fleet struct {
	srv      *serverProc
	clients  []*serve.Client
	sessions []*serve.ClientSession
	tenants  []string
	pools    []*pool // per session
	segDir   string
}

// openFleet spawns the server and opens every session concurrently. The
// returned duration runs from the spawn to the last open acknowledged.
func openFleet(o options, w workload, pools []*pool, procs *supervisor, segDir string) (*fleet, time.Duration, error) {
	var extra []string
	if w.segmentBatches > 0 {
		extra = []string{"-segment-dir", segDir, "-segment-batches", strconv.Itoa(w.segmentBatches)}
	}
	t0 := time.Now()
	srv, err := startServer(o.server, runtime.NumCPU(), extra...)
	if err != nil {
		return nil, 0, err
	}
	procs.add(srv)
	f := &fleet{srv: srv, segDir: segDir}
	for i := 0; i < conns; i++ {
		c, err := serve.Dial(srv.ingest)
		if err != nil {
			f.close(procs)
			return nil, 0, fmt.Errorf("dial: %w", err)
		}
		f.clients = append(f.clients, c)
	}
	f.sessions = make([]*serve.ClientSession, w.sessions)
	errs := make([]error, w.sessions)
	var wg sync.WaitGroup
	for i := 0; i < w.sessions; i++ {
		pl := pools[i%len(pools)]
		f.pools = append(f.pools, pl)
		f.tenants = append(f.tenants, fmt.Sprintf("bench-%02d", i))
		wg.Add(1)
		go func(i int, pl *pool) {
			defer wg.Done()
			f.sessions[i], errs[i] = f.clients[i%conns].Open(serve.OpenRequest{
				Tenant:     f.tenants[i],
				Algorithm:  pl.pair.alg,
				SLO:        sloClass,
				BatchBytes: w.batchBytes,
			})
		}(i, pl)
	}
	wg.Wait()
	setup := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			f.close(procs)
			return nil, 0, fmt.Errorf("open session %d: %w", i, err)
		}
	}
	return f, setup, nil
}

// close ends the sessions and connections and stops the server.
func (f *fleet) close(procs *supervisor) error {
	for _, s := range f.sessions {
		if s != nil {
			s.Close() //nolint:errcheck // teardown; the server is stopped next
		}
	}
	for _, c := range f.clients {
		c.Close()
	}
	err := f.srv.stop()
	procs.remove(f.srv)
	return err
}

// tally counts ops across the whole run.
type tally struct {
	attempted, failed int64
}

func (t *tally) phase(p *phaseResult) {
	t.attempted += p.ops
	t.failed += p.failed
	for _, err := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
	}
}

// run executes one workload run and returns its result line.
func run(o options, procs *supervisor) (result, error) {
	res := result{Metrics: map[string]metric{}}
	w, _ := workloadByName(o.workload)
	half := time.Duration(o.seconds) * time.Second / 2
	rec := newRecord(o, w, half)
	if b, err := json.Marshal(rec); err == nil {
		fmt.Println("record", string(b))
		_ = writeFile(filepath.Join(o.work, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, o.trace)), b) // the printed line is the record of truth
	}

	pools, err := buildPools(w, o.seed)
	if err != nil {
		return res, err
	}
	defer closePools(pools)

	var t tally
	var setups []float64
	var fl *fleet
	for r := 0; r < setupRuns; r++ {
		segDir := ""
		if w.segmentBatches > 0 {
			if segDir, err = os.MkdirTemp(o.work, "segments-"); err != nil {
				return res, err
			}
			defer os.RemoveAll(segDir)
		}
		t.attempted += int64(w.sessions)
		f, d, err := openFleet(o, w, pools, procs, segDir)
		if err != nil {
			t.failed += int64(w.sessions)
			res.Attempted, res.Failed = t.attempted, t.failed
			return res, err
		}
		setups = append(setups, d.Seconds())
		if r < setupRuns-1 {
			if err := f.close(procs); err != nil {
				return res, fmt.Errorf("stop server after set-up %d: %w", r, err)
			}
			continue
		}
		fl = f
	}
	closed := false
	defer func() {
		if !closed {
			fl.close(procs) //nolint:errcheck // error path; the run already failed
		}
	}()
	if err := fl.srv.waitHTTP(); err != nil {
		return res, err
	}

	senders := make([]*sender, len(fl.sessions))
	for i, cs := range fl.sessions {
		senders[i] = &sender{cs: cs, pool: fl.pools[i], sampleEvery: sampleEvery}
	}
	// shapeOf maps a session to its pair's index in pools; openFleet assigns
	// pairs round-robin.
	shapeOf := make([]int, len(fl.sessions))
	for i := range shapeOf {
		shapeOf[i] = i % len(pools)
	}
	// collect sums the senders' reply stats per shape and resets them.
	collect := func() []replyStats {
		sum := make([]replyStats, len(pools))
		for i, s := range senders {
			sum[shapeOf[i]].add(s.stats)
			s.stats = replyStats{}
		}
		return sum
	}

	var progress atomic.Int64
	warm := closedLoop(senders, warmup, &progress)
	t.phase(&warm)
	collect()

	// The segment reader runs beside the closed-loop writers and stops
	// before the paced phase: it is always busy (huff8 decodes far slower
	// than the writers seal), and beside the paced writers its CPU bursts,
	// not the write path, set the latency tail (over ten runs on a 2-vCPU
	// host, push_p90_ms spread 0.42 with it and 0.04 without).
	var reader *segmentReader
	readerDone := make(chan struct{})
	stopReader := make(chan struct{})
	if w.segmentBatches > 0 {
		reader = newSegmentReader(fl.segDir, fl.tenants, fl.pools)
		go func() {
			defer close(readerDone)
			reader.run(stopReader)
		}()
	} else {
		close(readerDone)
	}
	sc0, err := fl.srv.scrape()
	if err != nil {
		return res, err
	}
	p0, err := fl.srv.sample()
	if err != nil {
		return res, err
	}
	ru0 := selfCPU()
	stopSampler := make(chan struct{})
	ticksc := make(chan []tick, 1)
	go func() { ticksc <- sampleWindows(fl.srv, &progress, window, stopSampler) }()
	sat := closedLoop(senders, half, &progress)
	close(stopSampler)
	ticks := <-ticksc
	ru1 := selfCPU()
	p1, err := fl.srv.sample()
	if err != nil {
		return res, err
	}
	satStats := collect()
	t.phase(&sat)
	close(stopReader)
	<-readerDone

	// Without a segment sink the readback figure is the decoder rebuilding
	// the verified replies, sampled once a window beside the paced writers,
	// where the load is fixed and the CPUs have room.
	type decoded struct {
		rates []float64
		err   error
	}
	decodedc := make(chan decoded, 1)
	stopDecode := make(chan struct{})
	if reader == nil {
		go func() {
			r, err := decodeSampler(pools, window, stopDecode)
			decodedc <- decoded{r, err}
		}()
	} else {
		decodedc <- decoded{}
	}
	sched := newPacedSchedule(len(senders), w.batchBytes, w.pacedMiBs*(1<<20), o.seed)
	paced := pacedLoop(senders, sched, half)
	pacedStats := collect()
	t.phase(&paced)
	close(stopDecode)
	dec := <-decodedc
	p2, err := fl.srv.sample()
	if err != nil {
		return res, err
	}

	var readback float64
	if reader != nil {
		t.attempted += reader.ops
		t.failed += reader.failed
		for _, err := range reader.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed segment read:", err)
		}
		if reader.busy > 0 {
			readback = float64(reader.rawBytes) / (1 << 20) / reader.busy.Seconds()
		}
	} else if dec.err != nil {
		return res, dec.err
	} else {
		readback = median(dec.rates)
	}
	sc2, err := fl.srv.scrape()
	if err != nil {
		return res, err
	}

	var layers *report
	if o.trace == 1 {
		layers, err = replay(o, w, pools, fl, &t)
		if err != nil {
			return res, err
		}
	}
	closed = true
	if err := fl.close(procs); err != nil {
		return res, fmt.Errorf("stop server: %w", err)
	}

	satMiB := float64(sat.bytes) / (1 << 20)
	serverCPU := p1.cpu - p0.cpu
	var both replyStats
	var energy []float64
	for sh := range pools {
		both.add(satStats[sh])
		both.add(pacedStats[sh])
		energy = append(energy, satStats[sh].energy/float64(satStats[sh].replies))
	}

	var winMiBs, winCPU []float64
	for i := 1; i < len(ticks); i++ {
		mib := float64(ticks[i].bytes-ticks[i-1].bytes) / (1 << 20)
		winMiBs = append(winMiBs, mib/ticks[i].at.Sub(ticks[i-1].at).Seconds())
		winCPU = append(winCPU, float64(ticks[i].cpu-ticks[i-1].cpu)/float64(time.Millisecond)/mib)
	}
	lat := sortedCopy(paced.latMS)

	e2e := newReport()
	e2e.set("throughput_mibs", "MiB/s", median(winMiBs))
	e2e.set("cpu_ms_per_mib", "ms/MiB", median(winCPU))
	e2e.set("push_p50_ms", "ms", shapeQuantile(&paced, shapeOf, window.Seconds(), 0.50, minWindowSamples, -1))
	e2e.set("push_p90_ms", "ms", shapeQuantile(&paced, shapeOf, window.Seconds(), 0.90, minWindowSamples, -1))
	e2e.set("compression_ratio", "ratio", poolRatio(pools))
	e2e.set("sim_energy_uj_per_b", "uJ/B", mean(energy))
	e2e.set("setup_s", "s", median(setups))
	e2e.set("readback_mibs", "MiB/s", readback)

	lg := newReport()
	late := sortedCopy(paced.lateMS)
	lg.set("loadgen.late_p50_ms", "ms", quantile(late, 0.50))
	lg.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	lg.set("loadgen.push_p99_ms", "ms", quantile(lat, 0.99))
	lg.set("loadgen.cpu_ms_per_mib", "ms/MiB", float64(ru1-ru0)/float64(time.Millisecond)/satMiB)
	lg.set("loadgen.ops", "count", float64(t.attempted))
	lg.set("loadgen.ops_failed", "count", float64(t.failed))
	hits, lookups := sc2.planCache()
	lg.set("core.plan_cache_hit_ratio", "ratio", ratio(float64(hits), float64(lookups)))
	lg.set("core.contention_mean", "factor", both.contention/float64(both.replies))
	lg.set("core.clcv", "ratio", float64(both.violated)/float64(both.replies))
	// Pool behaviour over the measured phases only: warm-up fills the pool.
	poolAllocs := sc2.counter(serve.MetricFramePoolAllocs) - sc0.counter(serve.MetricFramePoolAllocs)
	poolAcquires := sc2.counter(serve.MetricFramePoolAcquires) - sc0.counter(serve.MetricFramePoolAcquires)
	lg.set("serve.frame_pool_hit_ratio", "ratio", 1-ratio(float64(poolAllocs), float64(poolAcquires)))
	lg.set("serve.frames_rejected", "count", float64(sc2.counter(serve.MetricFramesRejected)))
	lg.set("serve.sessions_shed", "count", float64(sc2.status.Shed))
	lg.set("serve.cpu_util", "ratio", serverCPU.Seconds()/(p1.at.Sub(p0.at).Seconds()*float64(runtime.NumCPU())))
	lg.set("serve.rss_peak_mib", "MiB", float64(p2.hwmKiB)/1024)

	fmt.Printf("phases: warm-up %d ops, saturation %d ops in %.2fs, paced %d ops in %.2fs (offered %.1f MiB/s, period %v), %d late samples\n",
		warm.ops, sat.ops, sat.wall.Seconds(), paced.ops, paced.wall.Seconds(), w.pacedMiBs, sched.period, len(paced.lateMS))
	fmt.Printf("samples: paced latency n=%d (%d beyond p90, %d beyond p99); setup_s runs %v\n",
		len(lat), len(lat)/10, len(lat)/100, setups)
	for sh, pl := range pools {
		fmt.Printf("shape %-8s saturation %6d replies, %.4g uJ/B; paced p50 %.4f ms p90 %.4f ms\n", pl.pair.alg,
			satStats[sh].replies, energy[sh],
			shapeQuantile(&paced, shapeOf, window.Seconds(), 0.5, minWindowSamples, sh),
			shapeQuantile(&paced, shapeOf, window.Seconds(), 0.9, minWindowSamples, sh))
	}
	fmt.Printf("whole phases: saturation %.2f MiB/s, %.3f ms/MiB over %d windows %v; paced p50 %.4f ms p90 %.4f ms, p90 by window %v\n",
		satMiB/sat.wall.Seconds(), float64(serverCPU)/float64(time.Millisecond)/satMiB, len(winMiBs), roundAll(winMiBs),
		quantile(lat, 0.5), quantile(lat, 0.9), roundAll(windowQuantiles(paced.atS, paced.latMS, window.Seconds(), 0.9, minWindowSamples)))
	e2e.print("e2e   ")
	lg.print("layer ")
	if layers != nil {
		layers.print("layer ")
	}

	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	out := e2e
	if o.trace == 1 {
		out = lg
		for _, n := range layers.names {
			out.set(n, layers.metrics[n].Unit, layers.metrics[n].Value)
		}
	}
	res.Metrics = out.metrics
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tick is the saturation phase's progress at one instant.
type tick struct {
	at    time.Time
	bytes int64
	cpu   time.Duration // server CPU
}

// sampleWindows records a tick now and every interval until stop closes.
func sampleWindows(srv *serverProc, progress *atomic.Int64, every time.Duration, stop <-chan struct{}) []tick {
	take := func() (tick, bool) {
		p, err := srv.sample()
		return tick{at: p.at, bytes: progress.Load(), cpu: p.cpu}, err == nil
	}
	var ticks []tick
	if t, ok := take(); ok {
		ticks = append(ticks, t)
	}
	tk := time.NewTicker(every)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return ticks
		case <-tk.C:
			if t, ok := take(); ok {
				ticks = append(ticks, t)
			}
		}
	}
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*10)) / 10
	}
	return out
}

// poolRatio is compressed over raw bytes across the payload pools. Every
// served reply is verified byte-identical to its pool entry, so this is the
// served ratio with each payload weighted once, independent of how fast each
// session happened to push.
func poolRatio(pools []*pool) float64 {
	var raw, comp int64
	for _, pl := range pools {
		for _, e := range pl.entries {
			raw += int64(len(e.raw))
			for _, s := range e.want.Segments {
				comp += int64(len(s.Compressed))
			}
		}
	}
	return ratio(float64(comp), float64(raw))
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runRecord stamps a result with the host and the run's shape.
type runRecord struct {
	Workload            string   `json:"workload"`
	Seed                int64    `json:"seed"`
	Trace               bool     `json:"trace"`
	CPUModel            string   `json:"cpu_model"`
	NProc               int      `json:"nproc"`
	ServerGOMAXPROCS    int      `json:"server_gomaxprocs"`
	GeneratorGOMAXPROCS int      `json:"generator_gomaxprocs"`
	GoVersion           string   `json:"go_version"`
	Commit              string   `json:"commit"`
	BatchBytes          int      `json:"batch_bytes"`
	Pairs               []string `json:"pairs"`
	Sessions            int      `json:"sessions"`
	Conns               int      `json:"conns"`
	PoolPerPair         int      `json:"pool_per_pair"`
	SegmentBatches      int      `json:"segment_batches,omitempty"`
	OfferedMiBs         float64  `json:"paced_offered_mibs"`
	SetupRuns           int      `json:"setup_runs"`
	WarmupS             float64  `json:"warmup_s"`
	SaturationS         float64  `json:"saturation_s"`
	PacedS              float64  `json:"paced_s"`
}

func newRecord(o options, w workload, half time.Duration) runRecord {
	r := runRecord{
		Workload:            w.name,
		Seed:                o.seed,
		Trace:               o.trace == 1,
		CPUModel:            cpuModel(),
		NProc:               runtime.NumCPU(),
		ServerGOMAXPROCS:    runtime.NumCPU(),
		GeneratorGOMAXPROCS: generatorProcs(),
		GoVersion:           runtime.Version(),
		Commit:              commitID(o.work),
		BatchBytes:          w.batchBytes,
		Sessions:            w.sessions,
		Conns:               conns,
		PoolPerPair:         w.poolPerPair,
		SegmentBatches:      w.segmentBatches,
		OfferedMiBs:         w.pacedMiBs,
		SetupRuns:           setupRuns,
		WarmupS:             warmup.Seconds(),
		SaturationS:         half.Seconds(),
		PacedS:              half.Seconds(),
	}
	for _, p := range w.pairs {
		r.Pairs = append(r.Pairs, p.alg+"/"+p.dataset)
	}
	return r
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of the Go sources (the benchmark may run
// from a plain export of the tree).
func commitID(work string) string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	workAbs, _ := filepath.Abs(work)
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if path != "." && (strings.HasPrefix(d.Name(), ".") || abs == workAbs) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
