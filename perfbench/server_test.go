package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestParseProcStatCPU(t *testing.T) {
	// The command name holds spaces and parentheses; utime=250, stime=50
	// ticks are fields 14 and 15.
	line := "4242 (cstream (serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615\n"
	got, err := parseProcStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 cstream S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ten 12"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted a malformed line", bad)
		}
	}
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if _, err := parseProcStatCPU(self); err != nil {
		t.Fatalf("own /proc/self/stat: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcstream-serve\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil || got != 20480 {
		t.Fatalf("parseVmHWM = %d, %v; want 20480", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
	self, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if kib, err := parseVmHWM(self); err != nil || kib <= 0 {
		t.Fatalf("own /proc/self/status: %d, %v", kib, err)
	}
}

func stubControlPlane(t *testing.T, h http.Handler) *serverProc {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &serverProc{httpAddr: strings.TrimPrefix(ts.URL, "http://")}
}

func TestScrapeReadsCountersAndStatus(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"counters":{"serve.frame_pool.acquires_total":200,"serve.frame_pool.allocs_total":4,"serve.frames_rejected_total":1},"gauges":{"serve.sessions_active":8},"histograms":{}}`))
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"accepted":8,"shed":2,"active":8,"peak":8,"shards":[{"index":0,"plan_cache":{"hits":3,"misses":1,"near_misses":1}},{"index":1,"plan_cache":{"hits":0,"misses":5,"near_misses":0}}],"tenants":[]}`))
	})
	sc, err := stubControlPlane(t, mux).scrape()
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.counter(serve.MetricFramePoolAcquires); got != 200 {
		t.Errorf("acquires = %d, want 200", got)
	}
	if got := sc.counter(serve.MetricFramesRejected); got != 1 {
		t.Errorf("frames rejected = %d, want 1", got)
	}
	if got := sc.counter("absent"); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
	if sc.status.Shed != 2 {
		t.Errorf("shed = %d, want 2", sc.status.Shed)
	}
	if hits, lookups := sc.planCache(); hits != 4 || lookups != 10 {
		t.Errorf("plan cache = %d hits of %d lookups, want 4 of 10", hits, lookups)
	}
}

// The scrape must parse what a real server's control plane serves.
func TestScrapeParsesRealControlPlane(t *testing.T) {
	s, err := serve.New(serve.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := stubControlPlane(t, s.Handler()).scrape()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.status.Shards) != 2 {
		t.Fatalf("status lists %d shards, want 2", len(sc.status.Shards))
	}
}

func TestScrapeRejectsErrorStatus(t *testing.T) {
	p := stubControlPlane(t, http.NotFoundHandler())
	if _, err := p.scrape(); err == nil {
		t.Fatal("scrape accepted a 404")
	}
}
