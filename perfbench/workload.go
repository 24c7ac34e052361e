package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/pkg/cstream"
)

// The server always runs with one fixed configuration; the workload seed only
// changes the bytes it is sent. These constants mirror what cstream-serve and
// its bronze class resolve to, so the library-path oracle plans the same
// shapes the server does.
const (
	serverSeed           = 1
	serverProfileDataset = "Micro"
	serverProfileBatches = 2
	sloClass             = "bronze"
	bronzeLSet           = 200.0 // µs/B, serve.DefaultSLOClasses' bronze
)

// Load shape shared by every workload: one generator process with at most two
// connections and at most eight pushes in flight (one per session).
const (
	conns       = 2
	maxInflight = 8
)

// pair is one session shape: a kernel fed by its natural dataset.
type pair struct {
	alg, dataset string
}

// workload is one traffic mix. Sessions are assigned pairs round-robin and
// spread over the connections round-robin.
type workload struct {
	name        string
	batchBytes  int
	pairs       []pair
	sessions    int
	poolPerPair int
	// pacedMiBs is the paced phase's offered rate. It was fixed at a quarter
	// to a half of the saturation throughput of the commit that defined the
	// benchmark, on a 2-vCPU Intel Xeon host, low enough that the host's speed
	// swings do not tip the paced phase into overload, and must not change
	// afterwards: later commits are compared at the same offered load.
	pacedMiBs float64
	// segmentBatches > 0 attaches the server's durable segment sink, sealing
	// a segment after that many batches per session.
	segmentBatches int
}

// Why each workload exists is recorded next to its name in BENCHMARK.json.
var workloads = []workload{
	{
		// Per-batch fixed costs dominate: frame codec, dispatch, pipeline
		// set-up. 16 KiB rather than 4 KiB because 4 KiB latency did not
		// repeat across identical runs.
		name:        "ingest-small",
		batchBytes:  16 << 10,
		pairs:       []pair{{"delta32", "Micro"}, {"tcomp32", "Rovio"}},
		sessions:    8,
		poolPerPair: 64,
		pacedMiBs:   40,
	},
	{
		// The paper's batch size: kernel work and slice parallelism dominate,
		// per-batch fixed costs are under 1%.
		name:        "ingest-bulk",
		batchBytes:  core.DefaultBatchBytes,
		pairs:       []pair{{"lz4", "Sensor"}, {"tdic32", "Rovio"}},
		sessions:    2,
		poolPerPair: 4,
		pacedMiBs:   80,
	},
	{
		// Every kernel on its natural dataset with the segment sink on and a
		// reader decoding sealed segments beside the writers.
		name:       "durable-mixed",
		batchBytes: 64 << 10,
		pairs: []pair{
			{"tcomp32", "Rovio"}, {"tdic32", "Stock"}, {"lz4", "Sensor"},
			{"delta32", "Stock"}, {"rle32", "Micro"}, {"huff8", "Sensor"},
		},
		sessions:       6,
		poolPerPair:    16,
		pacedMiBs:      48,
		segmentBatches: 256,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// entry is one pool payload with the output the server must return for it.
type entry struct {
	raw  []byte
	want *cstream.BatchResult
}

// pool is one pair's payloads plus the library-path session that computed
// their expected output (kept for the traced replay's facade layer).
type pool struct {
	pair    pair
	entries []entry
	lib     *cstream.Session
}

// newLibSession opens the library-path counterpart of a served session: the
// same platform, seed, profiling proxy, batch size and latency constraint.
func newLibSession(alg string, batchBytes int) (*cstream.Session, error) {
	return cstream.NewSession(alg, cstream.DatasetSource(serverProfileDataset, serverSeed),
		cstream.WithBatchBytes(batchBytes),
		cstream.WithProfileBatches(serverProfileBatches),
		cstream.WithLatencyConstraint(bronzeLSet))
}

// buildPool generates a pair's payloads from the workload seed and computes
// each one's expected compressed segments once through pkg/cstream. The
// oracle checks itself: every expected result must decode back to its
// payload.
func buildPool(p pair, batchBytes, n int, seed int64) (*pool, error) {
	gen, err := dataset.ByName(p.dataset, seed)
	if err != nil {
		return nil, err
	}
	lib, err := newLibSession(p.alg, batchBytes)
	if err != nil {
		return nil, fmt.Errorf("oracle session %s: %w", p.alg, err)
	}
	pl := &pool{pair: p, lib: lib}
	for i := 0; i < n; i++ {
		raw := gen.Batch(i, batchBytes).Bytes()
		want, err := lib.Push(context.Background(), raw)
		if err != nil {
			lib.Close()
			return nil, fmt.Errorf("oracle push %s: %w", p.alg, err)
		}
		got, err := want.Decode()
		if err != nil || !bytes.Equal(got, raw) {
			lib.Close()
			return nil, fmt.Errorf("oracle %s payload %d does not round-trip (%v)", p.alg, i, err)
		}
		pl.entries = append(pl.entries, entry{raw: raw, want: want})
	}
	return pl, nil
}

func buildPools(w workload, seed int64) ([]*pool, error) {
	var pools []*pool
	for _, p := range w.pairs {
		pl, err := buildPool(p, w.batchBytes, w.poolPerPair, seed)
		if err != nil {
			closePools(pools)
			return nil, err
		}
		pools = append(pools, pl)
	}
	return pools, nil
}

func closePools(pools []*pool) {
	for _, p := range pools {
		p.lib.Close()
	}
}

// errMismatch marks a reply that differs from the oracle's expected output.
var errMismatch = errors.New("reply differs from the expected output")

// verifyResult compares a served result byte-for-byte with the expected one.
func verifyResult(got *serve.Result, want *cstream.BatchResult) error {
	if got.InputBytes != want.InputBytes || got.TotalBits != want.TotalBits || len(got.Segments) != len(want.Segments) {
		return errMismatch
	}
	for i := range got.Segments {
		g, w := &got.Segments[i], &want.Segments[i]
		if g.SliceIndex != w.SliceIndex || g.OrigLen != w.OrigLen || g.BitLen != w.BitLen || !bytes.Equal(g.Compressed, w.Compressed) {
			return errMismatch
		}
	}
	return nil
}

// compressedBytes is the byte size of a served result's segments.
func compressedBytes(r *serve.Result) int {
	n := 0
	for i := range r.Segments {
		n += len(r.Segments[i].Compressed)
	}
	return n
}
