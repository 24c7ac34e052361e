package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/pkg/cstream"
)

// segmentReader follows the server's segment tree while writes continue,
// opening each newly sealed segment and decoding every batch in it. Each
// batch read is one op; it fails if it cannot be read or decoded, or decodes
// to anything but the payload the writing session pushed at that ordinal.
//
// The reader can fall behind the writers (huff8 decodes far slower than it
// encodes); it then stays busy until stopped, and whatever is sealed but not
// yet read when the phase ends is left unread, so a run's length does not
// depend on the backlog. To keep the decoded mix the same wherever it stops,
// it reads one batch from each store in turn rather than a whole segment at
// a time.
type segmentReader struct {
	stores []*storeCursor

	ops, failed int64
	rawBytes    int64
	busy        time.Duration // time spent opening, reading and decoding
	errs        []error
}

// storeCursor is the reader's position in one (tenant, algorithm) store.
type storeCursor struct {
	dir  string
	pool *pool
	seen map[string]bool
	seg  *cstream.SegmentReader // open segment being read, or nil
	next int                    // next batch of seg
}

func newSegmentReader(root string, tenants []string, pools []*pool) *segmentReader {
	r := &segmentReader{}
	for i, t := range tenants {
		r.stores = append(r.stores, &storeCursor{
			dir:  filepath.Join(root, t, pools[i].pair.alg),
			pool: pools[i],
			seen: map[string]bool{},
		})
	}
	return r
}

func (r *segmentReader) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
}

// advance makes sure c has an open segment with a batch left, opening the
// store's oldest sealed segment not read yet. It reports false when the
// store has nothing sealed to read.
func (r *segmentReader) advance(c *storeCursor) bool {
	if c.seg != nil && c.next < c.seg.Batches() {
		return true
	}
	if c.seg != nil {
		c.seg.Close()
		c.seg = nil
	}
	files, err := cstream.ListSegments(c.dir)
	if err != nil {
		r.ops++
		r.fail(err)
		return false
	}
	for _, path := range files {
		// The active segment is still being written; it is read once it is
		// sealed.
		if strings.HasSuffix(path, ".partial") || c.seen[path] {
			continue
		}
		c.seen[path] = true
		seg, err := cstream.OpenSegment(path)
		if err != nil {
			r.ops++
			r.fail(err)
			continue
		}
		if seg.Batches() == 0 {
			seg.Close()
			continue
		}
		c.seg, c.next = seg, 0
		return true
	}
	return false
}

// readOne reads and checks the cursor's next batch.
func (r *segmentReader) readOne(c *storeCursor) {
	r.ops++
	i := c.next
	c.next++
	b, err := c.seg.ReadBatch(i)
	if err != nil {
		r.fail(err)
		return
	}
	raw, err := b.Decode()
	if err != nil {
		r.fail(err)
		return
	}
	if want := c.pool.entries[b.Batch%len(c.pool.entries)].raw; !bytes.Equal(raw, want) {
		r.fail(fmt.Errorf("%s batch %d decodes to the wrong payload", c.seg.Path(), b.Batch))
		return
	}
	r.rawBytes += int64(len(raw))
}

// run reads until stop is closed, polling for new seals when every store
// is drained.
func (r *segmentReader) run(stop <-chan struct{}) {
	defer func() {
		for _, c := range r.stores {
			if c.seg != nil {
				c.seg.Close()
			}
		}
	}()
	for {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		worked := false
		for _, c := range r.stores {
			if r.advance(c) {
				r.readOne(c)
				worked = true
			}
		}
		if worked {
			r.busy += time.Since(t0)
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// decodePass is the readback figure of the workloads without a segment
// sink: the library decoder rebuilding every pool payload once from the
// verified replies' segments (each served reply is byte-identical to its
// entry's expected result). It returns the pass's MiB/s.
func decodePass(pools []*pool) (float64, error) {
	var n int64
	t0 := time.Now()
	for _, pl := range pools {
		for i := range pl.entries {
			e := &pl.entries[i]
			raw, err := e.want.Decode()
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(raw, e.raw) {
				return 0, fmt.Errorf("%s payload %d decodes to the wrong bytes", pl.pair.alg, i)
			}
			n += int64(len(raw))
		}
	}
	return float64(n) / (1 << 20) / time.Since(t0).Seconds(), nil
}

// decodeSampler runs one decode pass every interval until stop closes, so
// the figure is spread over the whole phase (the host's speed drifts over
// seconds) rather than taken in one burst. It returns the passes' rates.
func decodeSampler(pools []*pool, every time.Duration, stop <-chan struct{}) ([]float64, error) {
	var rates []float64
	tk := time.NewTicker(every)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return rates, nil
		case <-tk.C:
			r, err := decodePass(pools)
			if err != nil {
				return rates, err
			}
			rates = append(rates, r)
		}
	}
}
