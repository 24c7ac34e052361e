package main

import "testing"

// Every workload keeps the load shape the benchmark promises: at most two
// connections, at most eight pushes in flight (one per session), and every
// kernel it names paired with a dataset the generators know.
func TestWorkloadsRespectLoadShape(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("workload %s defined twice", w.name)
		}
		seen[w.name] = true
		if w.sessions > maxInflight || w.sessions < conns || w.sessions < len(w.pairs) {
			t.Errorf("%s: %d sessions for %d pairs over %d conns (max %d in flight)", w.name, w.sessions, len(w.pairs), conns, maxInflight)
		}
		if w.pacedMiBs <= 0 || w.poolPerPair < 1 || w.batchBytes%16 != 0 {
			t.Errorf("%s: bad rate %v, pool %d or batch size %d", w.name, w.pacedMiBs, w.poolPerPair, w.batchBytes)
		}
		if _, err := workloadByName(w.name); err != nil {
			t.Error(err)
		}
	}
	if _, err := workloadByName("no-such-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The oracle's library path must agree with itself: each expected result
// decodes to its payload (buildPool checks), and a second session planned
// the same way produces the same bytes.
func TestOracleIsDeterministic(t *testing.T) {
	a, err := buildPool(pair{"tcomp32", "Rovio"}, 8<<10, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.lib.Close()
	b, err := buildPool(pair{"tcomp32", "Rovio"}, 8<<10, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.lib.Close()
	for i := range a.entries {
		if err := batchMatches(a.entries[i].want, b.entries[i].want); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
	}
}
