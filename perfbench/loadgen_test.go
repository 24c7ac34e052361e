package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pkg/cstream"
)

// stubServer speaks the ingest protocol and answers every Data frame with the
// oracle's expected result for that payload, so the generator's real
// sender, verification and timing run against a server whose behaviour the
// test controls: it can stall one reply or flip one byte of one reply.
type stubServer struct {
	ln      net.Listener
	replies map[string][]byte // raw payload → FrameResult payload

	mu   sync.Mutex
	f    faults
	data int
	wg   sync.WaitGroup
}

// faults are the stub's misbehaviours, by 1-based Data frame number; 0
// never fires.
type faults struct {
	stallAt  int
	stallFor time.Duration
	flipAt   int // this reply gets one byte flipped
}

// encodeResult builds a FrameResult payload (the serve wire layout) for an
// expected result.
func encodeResult(r *cstream.BatchResult) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(r.InputBytes))
	for _, f := range []float64{40, 0.25, 1} { // latency µs/B, energy µJ/B, contention
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = append(b, 0)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Segments)))
	for _, s := range r.Segments {
		b = binary.BigEndian.AppendUint32(b, uint32(s.SliceIndex))
		b = binary.BigEndian.AppendUint32(b, uint32(s.OrigLen))
		b = binary.BigEndian.AppendUint64(b, s.BitLen)
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.Compressed)))
		b = append(b, s.Compressed...)
	}
	return b
}

func newStubServer(t *testing.T, pl *pool, f faults) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, replies: map[string][]byte{}, f: f}
	for _, e := range pl.entries {
		s.replies[string(e.raw)] = encodeResult(e.want)
	}
	s.wg.Add(1)
	go s.accept()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *stubServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *stubServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		f, err := serve.ReadFrame(br)
		if err != nil {
			return
		}
		var typ byte
		var body []byte
		switch f.Type {
		case serve.FrameOpen:
			typ = serve.FrameOpenOK
			body, _ = json.Marshal(serve.OpenReply{Feasible: true})
		case serve.FrameClose:
			typ = serve.FrameClosed
		case serve.FrameData:
			s.mu.Lock()
			s.data++
			var stall time.Duration
			if s.data == s.f.stallAt {
				stall = s.f.stallFor
			}
			flip := s.data == s.f.flipAt
			s.mu.Unlock()
			typ = serve.FrameResult
			body = append([]byte(nil), s.replies[string(f.Payload)]...)
			time.Sleep(stall)
			if flip {
				body[len(body)-1] ^= 0x01 // last byte of the last segment
			}
		default:
			typ = serve.FrameError
			body = []byte("unexpected frame")
		}
		if err := serve.WriteFrame(conn, typ, f.Session, body); err != nil {
			return
		}
	}
}

// testPool builds a small delta32 pool through the real oracle.
func testPool(t *testing.T) *pool {
	t.Helper()
	pl, err := buildPool(pair{"delta32", "Micro"}, 4<<10, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.lib.Close() })
	return pl
}

func stubSender(t *testing.T, s *stubServer, pl *pool) *sender {
	t.Helper()
	c, err := serve.Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cs, err := c.Open(serve.OpenRequest{Tenant: "t", Algorithm: pl.pair.alg, SLO: sloClass})
	if err != nil {
		t.Fatal(err)
	}
	return &sender{cs: cs, pool: pl, sampleEvery: 1}
}

// A stall must be charged to every push queued behind it: latency runs from
// each push's due time, not from when the busy session finally sent it.
func TestPacedLatencyCountsQueueBehindStall(t *testing.T) {
	pl := testPool(t)
	const (
		period = 10 * time.Millisecond
		stall  = 200 * time.Millisecond
	)
	s := newStubServer(t, pl, faults{stallAt: 5, stallFor: stall})
	snd := stubSender(t, s, pl)

	res := pacedLoop([]*sender{snd}, pacedSchedule{period: period, offsets: []time.Duration{0}}, 500*time.Millisecond)
	if res.failed != 0 || res.ops != 50 {
		t.Fatalf("paced phase: %d ops, %d failed (%v); want 50 ops, none failed", res.ops, res.failed, res.errs)
	}
	// Push k (0-based) is due at k*period; the stalled one is k=4 and its
	// reply arrives no earlier than 4*period + stall. Every push due before
	// then waits for it.
	stallEnd := 4*period + stall
	queued := 0
	for k := 5; k < len(res.latMS); k++ {
		due := time.Duration(k) * period
		if due >= stallEnd-period {
			break
		}
		floor := float64(stallEnd-due) / float64(time.Millisecond)
		if res.latMS[k] < floor*0.9 {
			t.Errorf("push %d queued behind the stall: latency %.1f ms, want >= %.1f ms", k, res.latMS[k], floor)
		}
		queued++
	}
	if queued < 10 {
		t.Fatalf("only %d pushes queued behind the stall", queued)
	}
	if res.latMS[4] < float64(stall)/float64(time.Millisecond) {
		t.Errorf("stalled push latency %.1f ms, want >= %v", res.latMS[4], stall)
	}
	// Pushes sent late only because their session was busy are not
	// generator lag: the idle-session lateness samples exclude them.
	if int64(len(res.lateMS)) >= res.ops-int64(queued) {
		t.Errorf("%d lateness samples of %d pushes; the %d queued pushes must not count as generator lag",
			len(res.lateMS), res.ops, queued)
	}
}

// The closed loop times each push from its send, so the same stall shows
// as one slow push only — the contrast the paced phase exists for.
func TestClosedLoopTimesFromSend(t *testing.T) {
	pl := testPool(t)
	s := newStubServer(t, pl, faults{stallAt: 5, stallFor: 150 * time.Millisecond})
	res := closedLoop([]*sender{stubSender(t, s, pl)}, 300*time.Millisecond, new(atomic.Int64))
	slow := 0
	for _, l := range res.latMS {
		if l > 100 {
			slow++
		}
	}
	if res.failed != 0 || slow != 1 {
		t.Fatalf("closed loop: %d failed, %d pushes over 100 ms; want 0 and 1", res.failed, slow)
	}
}

// A single flipped byte in one reply must be caught by the oracle and
// counted as one failed op.
func TestFlippedReplyByteFailsOneOp(t *testing.T) {
	pl := testPool(t)
	s := newStubServer(t, pl, faults{flipAt: 3})
	snd := stubSender(t, s, pl)
	snd.sampleEvery = 1 << 30 // the byte comparison alone must catch it

	for i := 1; i <= 6; i++ {
		_, err := snd.send()
		switch {
		case i == 3 && !errors.Is(err, errMismatch):
			t.Fatalf("push %d with a flipped byte: err = %v, want errMismatch", i, err)
		case i != 3 && err != nil:
			t.Fatalf("push %d: %v", i, err)
		}
	}
	// One more flip, on the second push of a measured phase.
	s.mu.Lock()
	s.f.flipAt = s.data + 2
	s.mu.Unlock()
	res := closedLoop([]*sender{snd}, 100*time.Millisecond, new(atomic.Int64))
	if res.failed != 1 || res.ops < 3 {
		t.Fatalf("closed loop over a flipped reply: %d ops, %d failed; want 1 failed", res.ops, res.failed)
	}
	if snd.stats.replies != int(res.ops-res.failed)+5 {
		t.Errorf("verified replies %d, want %d", snd.stats.replies, res.ops-res.failed+5)
	}
}

func TestPacedScheduleSpreadsRate(t *testing.T) {
	sched := newPacedSchedule(4, 1<<20, 8<<20, 3)
	// 8 MiB/s over 4 sessions of 1 MiB batches: one push per session every
	// 500 ms.
	if sched.period != 500*time.Millisecond {
		t.Fatalf("period %v, want 500ms", sched.period)
	}
	again := newPacedSchedule(4, 1<<20, 8<<20, 3)
	for i, off := range sched.offsets {
		if off < 0 || off >= sched.period {
			t.Errorf("offset %d = %v outside [0, period)", i, off)
		}
		if again.offsets[i] != off {
			t.Errorf("offsets differ for the same seed")
		}
	}
}
