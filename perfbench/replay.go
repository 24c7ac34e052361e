package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/segstore"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/pkg/cstream"
)

// The traced replay pushes each pool payload serially through every layer's
// public entry point, one layer after another, timing each call from the
// outside:
//
//	compress kernel → compress.RunPipeline → core.StreamHandle.RunBatch →
//	cstream.Session.PushReuse, segstore.Store.AppendResult, serve frame codec
//	→ serve.ClientSession.PushReuse; then cstream.OpenSegment/ReadBatch →
//	decode for the reads.
//
// A layer's self time is its median minus the median of the layer below it
// on the same payload.

// span is one timed call. Spans stay in memory until the replay ends.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Batch  int       `json:"batch"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	Allocs uint64    `json:"allocs"`
}

// tracer records spans when on; off, it only times the call, which is what
// the untraced rounds compare against to give the tracing overhead.
type tracer struct {
	on    bool
	spans []span
	ms    runtime.MemStats
}

// begin opens a parent span with no allocation count; end closes it.
func (t *tracer) begin(name string, batch int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Batch: batch, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Now()
	}
}

// call times fn as a child span of parent, counting the heap allocations
// made during it (runtime.MemStats.Mallocs, all goroutines).
func (t *tracer) call(name string, parent, batch int, fn func() error) (time.Duration, uint64, error) {
	if !t.on {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), 0, err
	}
	runtime.ReadMemStats(&t.ms)
	before := t.ms.Mallocs
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	runtime.ReadMemStats(&t.ms)
	allocs := t.ms.Mallocs - before
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Batch: batch, Start: t0, End: t1, Allocs: allocs})
	return t1.Sub(t0), allocs, err
}

// chromeTrace renders spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open. All spans sit on one thread: the replay is serial,
// so children nest inside their parent by time.
func chromeTrace(spans []span) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ns"}
	if len(spans) == 0 {
		return json.Marshal(doc)
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Cat: "replay", Ph: "X",
			TS: us(s.Start.Sub(origin)), Dur: us(s.End.Sub(s.Start)),
			PID: 1, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "batch": s.Batch, "allocs": s.Allocs},
		})
	}
	return json.Marshal(doc)
}

// samples holds one layer's durations (µs) per payload key, plus its
// allocation counts.
type samples struct {
	us     map[int][]float64
	allocs []float64
}

type layerSet map[string]*samples

func (ls layerSet) add(layer string, key int, d time.Duration, allocs uint64) {
	s := ls[layer]
	if s == nil {
		s = &samples{us: map[int][]float64{}}
		ls[layer] = s
	}
	s.us[key] = append(s.us[key], float64(d)/float64(time.Microsecond))
	s.allocs = append(s.allocs, float64(allocs))
}

// perPayload is the layer's median per payload key.
func (ls layerSet) perPayload(layer string) map[int]float64 {
	out := map[int]float64{}
	if s := ls[layer]; s != nil {
		for k, v := range s.us {
			out[k] = median(v)
		}
	}
	return out
}

// med is the layer's median across payloads of the per-payload medians.
func (ls layerSet) med(layer string) float64 {
	var v []float64
	for _, m := range ls.perPayload(layer) {
		v = append(v, m)
	}
	return median(v)
}

// self is the median across payloads of layer minus the sum of the layers
// below it, each taken as its per-payload median.
func (ls layerSet) self(layer string, below ...string) float64 {
	top := ls.perPayload(layer)
	subs := make([]map[int]float64, len(below))
	for i, b := range below {
		subs[i] = ls.perPayload(b)
	}
	var v []float64
	for k, t := range top {
		d := t
		for _, s := range subs {
			d -= s[k]
		}
		v = append(v, d)
	}
	return median(v)
}

// merge adds o's samples to ls; their payload keys must not overlap.
func (ls layerSet) merge(o layerSet) {
	for name, s := range o {
		d := ls[name]
		if d == nil {
			d = &samples{us: map[int][]float64{}}
			ls[name] = d
		}
		for k, v := range s.us {
			d.us[k] = append(d.us[k], v...)
		}
		d.allocs = append(d.allocs, s.allocs...)
	}
}

func (ls layerSet) allocs(layer string) float64 {
	if s := ls[layer]; s != nil {
		return median(s.allocs)
	}
	return 0
}

// replayRounds is how many traced rounds go over each pool; as many untraced
// rounds interleave with them. Small pools get more rounds so every layer
// has at least 32 samples per pair.
func replayRounds(poolSize int) int {
	return max(3, (32+poolSize-1)/poolSize)
}

// rotateEvery seals the replay's segment after this many appends, so
// rotation is timed several times per pair.
const rotateEvery = 4

// pipelineMatches compares a pipeline result with the oracle's.
func pipelineMatches(got *compress.PipelineResult, want *cstream.BatchResult) error {
	if got.InputBytes != want.InputBytes || got.TotalBits != want.TotalBits || len(got.Segments) != len(want.Segments) {
		return errMismatch
	}
	for i := range got.Segments {
		g, w := &got.Segments[i], &want.Segments[i]
		if g.OrigLen != w.OrigLen || g.BitLen != w.BitLen || !bytes.Equal(g.Compressed, w.Compressed) {
			return errMismatch
		}
	}
	return nil
}

// pairReplay holds one pair's layer handles.
type pairReplay struct {
	pl      *pool
	alg     compress.Algorithm
	handle  *core.StreamHandle
	workers []int
	slices  int
	kernel  compress.Session
	store   *segstore.Store
	dir     string
	cs      *serve.ClientSession
	lres    cstream.BatchResult
	sres    serve.Result
	fb      *serve.FrameBuffer
	buf     bytes.Buffer
	appends int
}

// setupPair profiles and plans the pair's shape as the server does (timing
// both), attaches a stream handle, and opens a segment store and a served
// session for the replay.
func setupPair(pl *pool, batchBytes int, dir string, c *serve.Client, ls layerSet, key int) (*pairReplay, error) {
	alg, err := compress.ByName(pl.pair.alg)
	if err != nil {
		return nil, err
	}
	gen, err := dataset.ByName(serverProfileDataset, serverSeed)
	if err != nil {
		return nil, err
	}
	wl := core.NewWorkload(alg, gen)
	wl.BatchBytes = batchBytes
	wl.LSet = bronzeLSet
	var dep *core.Deployment
	var planner *core.Planner
	for r := 0; r < 3; r++ {
		if planner, err = core.NewPlanner(amp.NewRK3399(), serverSeed); err != nil {
			return nil, err
		}
		planner.EnablePlanCache(64)
		t0 := time.Now()
		prof := core.ProfileWorkload(wl, serverProfileBatches, 0)
		ls.add("core.profile", key, time.Since(t0), 0)
		t0 = time.Now()
		if dep, err = planner.DeployProfile(wl, prof, core.MechCStream); err != nil {
			return nil, err
		}
		ls.add("core.plan", key, time.Since(t0), 0)
	}
	h, err := core.NewMultiStreamRuntime(planner).Attach(wl, dep)
	if err != nil {
		return nil, err
	}
	pr := &pairReplay{pl: pl, alg: alg, handle: h, kernel: alg.NewSession(), dir: dir, fb: serve.AcquireFrameBuffer()}
	pr.workers, pr.slices = dep.StageWorkers(alg)
	// RunBatchData narrows the width for batches shorter than one word per
	// slice; the replay's direct pipeline call does the same.
	if n := batchBytes / 4; n >= 1 && n < pr.slices {
		pr.slices = n
	}
	if pr.store, err = segstore.Open(dir, segstore.Options{Algorithm: pl.pair.alg, BatchBytes: batchBytes}); err != nil {
		h.Detach()
		return nil, err
	}
	if pr.cs, err = c.Open(serve.OpenRequest{Tenant: "bench-trace", Algorithm: pl.pair.alg, SLO: sloClass, BatchBytes: batchBytes}); err != nil {
		pr.store.Close()
		h.Detach()
		return nil, fmt.Errorf("open replay session: %w", err)
	}
	return pr, nil
}

func (pr *pairReplay) close() {
	pr.cs.Close() //nolint:errcheck // the server is stopped after the replay
	pr.handle.Detach()
	pr.fb.Release()
}

// payload runs one payload through every write-path layer.
func (pr *pairReplay) payload(tr *tracer, ls layerSet, t *tally, key, p int) {
	e := &pr.pl.entries[p]
	batch := stream.NewBatchBytes(p, e.raw)
	ctx := context.Background()
	root := tr.begin("replay "+pr.pl.pair.alg, key)
	step := func(layer string, fn func() error) {
		d, allocs, err := tr.call(layer, root, key, fn)
		t.attempted++
		if err != nil {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: replay %s %s payload %d: %v\n", layer, pr.pl.pair.alg, p, err)
		}
		if tr.on {
			ls.add(layer, key, d, allocs)
		}
	}
	step("compress.kernel", func() error {
		pr.kernel.Reset()
		if r := pr.kernel.CompressBatchReuse(batch); r.InputBytes != len(e.raw) {
			return fmt.Errorf("kernel consumed %d of %d bytes", r.InputBytes, len(e.raw))
		}
		return nil
	})
	var pres *compress.PipelineResult
	step("compress.pipeline", func() error {
		var err error
		if pres, err = compress.RunPipeline(pr.alg, batch, pr.slices, pr.workers); err != nil {
			return err
		}
		return pipelineMatches(pres, e.want)
	})
	if pres == nil {
		tr.end(root)
		return
	}
	step("compress.decode", func() error {
		raw, err := compress.DecodeSegments(pr.alg.Name(), pres)
		if err == nil && !bytes.Equal(raw, e.raw) {
			err = errMismatch
		}
		return err
	})
	step("segstore.append", func() error { return pr.store.AppendResult(p, time.Now().UnixNano(), pres) })
	pres.Release()
	if pr.appends++; pr.appends%rotateEvery == 0 {
		step("segstore.rotate", pr.store.Rotate)
	}
	step("core.run_batch", func() error {
		res, _, err := pr.handle.RunBatch(ctx, batch)
		if err != nil {
			return err
		}
		err = pipelineMatches(res, e.want)
		res.Release()
		return err
	})
	step("cstream.push", func() error {
		if _, err := pr.pl.lib.PushReuse(ctx, e.raw, &pr.lres); err != nil {
			return err
		}
		return batchMatches(&pr.lres, e.want)
	})
	step("serve.codec", func() error {
		pr.buf.Reset()
		if err := serve.WriteFrame(&pr.buf, serve.FrameData, 1, e.raw); err != nil {
			return err
		}
		f, err := serve.ReadFrameInto(&pr.buf, pr.fb)
		if err == nil && len(f.Payload) != len(e.raw) {
			err = errors.New("frame codec lost bytes")
		}
		return err
	})
	step("serve.push", func() error {
		if err := pr.cs.PushReuse(e.raw, &pr.sres); err != nil {
			return err
		}
		return verifyResult(&pr.sres, e.want)
	})
	tr.end(root)
}

// readBack seals the replay's store and reads every batch back through the
// facade's segment reader, timing the open, each read and each decode.
func (pr *pairReplay) readBack(tr *tracer, ls layerSet, t *tally, keyBase int) (fileBytes int64, batches int, err error) {
	if err := pr.store.Close(); err != nil {
		return 0, 0, err
	}
	files, err := cstream.ListSegments(pr.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, path := range files {
		st, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		fileBytes += st.Size()
		root := tr.begin("readback "+pr.pl.pair.alg, -1)
		var seg *cstream.SegmentReader
		d, _, err := tr.call("cstream.open_segment", root, -1, func() error {
			var err error
			seg, err = cstream.OpenSegment(path)
			return err
		})
		ls.add("cstream.open_segment", keyBase, d, 0)
		t.attempted++
		if err != nil {
			t.failed++
			tr.end(root)
			return 0, 0, err
		}
		for i := 0; i < seg.Batches(); i++ {
			var b *cstream.BatchResult
			d, allocs, err := tr.call("segstore.read_batch", root, i, func() error {
				var err error
				b, err = seg.ReadBatch(i)
				return err
			})
			t.attempted++
			if err != nil {
				t.failed++
				continue
			}
			key := keyBase + b.Batch
			ls.add("segstore.read_batch", key, d, allocs)
			d, allocs, err = tr.call("cstream.decode", root, key, func() error {
				raw, err := b.Decode()
				if err == nil && !bytes.Equal(raw, pr.pl.entries[b.Batch].raw) {
					err = errMismatch
				}
				return err
			})
			if err != nil {
				t.failed++
				fmt.Fprintf(os.Stderr, "perfbench: readback %s batch %d: %v\n", path, b.Batch, err)
			}
			ls.add("cstream.decode", key, d, allocs)
			batches++
		}
		seg.Close()
		tr.end(root)
	}
	return fileBytes, batches, nil
}

// batchMatches compares a library-path result with the oracle's.
func batchMatches(got, want *cstream.BatchResult) error {
	if got.InputBytes != want.InputBytes || got.TotalBits != want.TotalBits || len(got.Segments) != len(want.Segments) {
		return errMismatch
	}
	for i := range got.Segments {
		g, w := &got.Segments[i], &want.Segments[i]
		if g.OrigLen != w.OrigLen || g.BitLen != w.BitLen || !bytes.Equal(g.Compressed, w.Compressed) {
			return errMismatch
		}
	}
	return nil
}

// replay runs the traced layer replay for every pair of the workload and
// returns the per-layer metrics.
func replay(o options, w workload, pools []*pool, fl *fleet, t *tally) (*report, error) {
	ls := layerSet{}
	tr := &tracer{}
	rounds := replayRounds(w.poolPerPair)
	root, err := os.MkdirTemp(o.work, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var tracedWall, untracedWall []float64
	var fileBytes int64
	var batches int
	perPair := map[string]layerSet{}
	for pi, pl := range pools {
		// Payload keys are unique across pairs, so the pairs' sets merge
		// into one.
		keyBase := pi * 1_000_000
		pls := layerSet{}
		pr, err := setupPair(pl, w.batchBytes, filepath.Join(root, pl.pair.alg), fl.clients[0], pls, keyBase)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", pl.pair.alg, err)
		}
		// Rounds alternate untraced and traced, so both see the same cache
		// and server state on average.
		for r := 0; r < 2*rounds; r++ {
			tr.on = r%2 == 1
			t0 := time.Now()
			for p := range pl.entries {
				pr.payload(tr, pls, t, keyBase+p, p)
			}
			wall := time.Since(t0).Seconds()
			if tr.on {
				tracedWall = append(tracedWall, wall)
			} else {
				untracedWall = append(untracedWall, wall)
			}
		}
		tr.on = true
		fb, nb, err := pr.readBack(tr, pls, t, keyBase)
		pr.close()
		if err != nil {
			return nil, fmt.Errorf("replay readback %s: %w", pl.pair.alg, err)
		}
		fileBytes += fb
		batches += nb
		ls.merge(pls)
		perPair[pl.pair.alg] = pls
	}

	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	doc, err := chromeTrace(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := writeFile(path, doc); err != nil {
		return nil, err
	}

	r := newReport()
	r.set("compress.kernel_us", "us", ls.med("compress.kernel"))
	r.set("compress.decode_us", "us", ls.med("compress.decode"))
	r.set("compress.pipeline_us", "us", ls.med("compress.pipeline"))
	r.set("compress.schedule_overhead_us", "us", ls.self("compress.pipeline", "compress.kernel"))
	r.set("compress.pipeline_allocs", "count", ls.allocs("compress.pipeline"))
	r.set("core.run_batch_us", "us", ls.med("core.run_batch"))
	r.set("core.overhead_us", "us", ls.self("core.run_batch", "compress.pipeline"))
	r.set("core.profile_ms", "ms", ls.med("core.profile")/1000)
	r.set("core.plan_ms", "ms", ls.med("core.plan")/1000)
	r.set("cstream.push_us", "us", ls.med("cstream.push"))
	r.set("cstream.push_allocs", "count", ls.allocs("cstream.push"))
	r.set("segstore.append_us", "us", ls.med("segstore.append"))
	r.set("segstore.rotate_ms", "ms", ls.med("segstore.rotate")/1000)
	r.set("segstore.read_batch_us", "us", ls.med("segstore.read_batch"))
	r.set("segstore.bytes_per_batch", "B", ratio(float64(fileBytes), float64(batches)))
	r.set("serve.codec_us", "us", ls.med("serve.codec"))
	r.set("serve.rtt_us", "us", ls.med("serve.push"))
	r.set("serve.overhead_us", "us", ls.self("serve.push", "core.run_batch", "serve.codec"))
	traced, untraced := median(tracedWall), median(untracedWall)
	r.set("trace.overhead_pct", "%", (traced/untraced-1)*100)

	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	fmt.Printf("trace: replay rounds %d traced + %d untraced per pair; traced round median %.4fs vs untraced %.4fs\n",
		rounds, rounds, traced, untraced)
	fmt.Println("trace: adjacent-layer deltas (median over payloads of the per-payload median difference):")
	for _, d := range []struct {
		name  string
		top   string
		below []string
	}{
		{"compress.pipeline - compress.kernel", "compress.pipeline", []string{"compress.kernel"}},
		{"core.run_batch - compress.pipeline", "core.run_batch", []string{"compress.pipeline"}},
		{"cstream.push - core.run_batch", "cstream.push", []string{"core.run_batch"}},
		{"serve.push - core.run_batch - serve.codec", "serve.push", []string{"core.run_batch", "serve.codec"}},
		{"cstream.decode - compress.decode", "cstream.decode", []string{"compress.decode"}},
	} {
		fmt.Printf("trace:   %-44s %12.1f us\n", d.name, ls.self(d.top, d.below...))
	}
	algs := make([]string, 0, len(perPair))
	for a := range perPair {
		algs = append(algs, a)
	}
	sort.Strings(algs)
	fmt.Println("trace: per-kernel variants (not gated):")
	for _, a := range algs {
		pls := perPair[a]
		for _, v := range []struct{ name, layer string }{
			{"compress.kernel_us", "compress.kernel"},
			{"compress.pipeline_us", "compress.pipeline"},
			{"compress.decode_us", "compress.decode"},
			{"core.run_batch_us", "core.run_batch"},
			{"cstream.push_us", "cstream.push"},
			{"segstore.append_us", "segstore.append"},
			{"segstore.read_batch_us", "segstore.read_batch"},
			{"serve.rtt_us", "serve.push"},
		} {
			fmt.Printf("layer %-32s %14.6g us\n", v.name+"."+a, pls.med(v.layer))
		}
	}
	return r, nil
}
