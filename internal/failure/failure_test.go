package failure

import (
	"testing"
	"time"
)

func TestPlanSorted(t *testing.T) {
	p := Plan{{At: 3 * time.Second, Rank: 1}, {At: time.Second, Rank: 2}, {At: 2 * time.Second, Rank: 0}}
	s := p.Sorted()
	if s[0].Rank != 2 || s[1].Rank != 0 || s[2].Rank != 1 {
		t.Fatalf("sorted %v", s)
	}
	// Original untouched.
	if p[0].Rank != 1 {
		t.Fatal("Sorted mutated the input")
	}
}

func TestPlanSortedStable(t *testing.T) {
	// Events injected at the same instant must fire in plan order —
	// mixed-kind schedules (chaos harness) depend on it.
	p := Plan{
		{At: time.Second, Kind: KindServer, Server: 0},
		{At: time.Second, Rank: 3},
		{At: time.Second, Kind: KindNode, Node: 2},
	}
	s := p.Sorted()
	if s[0].Kind != KindServer || s[1].Kind != KindRank || s[2].Kind != KindNode {
		t.Fatalf("same-instant events reordered: %v", s)
	}
}

func TestKindRoundTrip(t *testing.T) {
	// Server and node kills keep their kind and victim through a sorted
	// schedule, and the zero value still means a rank kill.
	p := Plan{
		{At: 3 * time.Second, Kind: KindServer, Server: 1},
		{At: time.Second, Kind: KindNode, Node: 4},
		{At: 2 * time.Second, Rank: 2},
	}
	s := p.Sorted()
	want := []struct {
		kind   Kind
		victim int
		name   string
	}{{KindNode, 4, "node"}, {KindRank, 2, "rank"}, {KindServer, 1, "server"}}
	for i, w := range want {
		if s[i].Kind != w.kind || s[i].Victim() != w.victim {
			t.Fatalf("event %d: got kind=%v victim=%d, want %v %d", i, s[i].Kind, s[i].Victim(), w.kind, w.victim)
		}
		if s[i].Kind.String() != w.name {
			t.Fatalf("event %d: kind name %q", i, s[i].Kind.String())
		}
	}
	if got := (Event{At: time.Second, Kind: KindServer, Server: 2}).String(); got != "kill server 2 @ 1s" {
		t.Fatalf("String: %q", got)
	}
	if got := (Event{At: time.Second, Kind: KindNode, Node: 5}).String(); got != "kill node 5 @ 1s" {
		t.Fatalf("String: %q", got)
	}
}

func TestExponentialStatistics(t *testing.T) {
	e := NewExponential(10*time.Second, 1)
	var sum time.Duration
	const n = 2000
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		d, r := e.Next(8)
		if d < 0 || r < 0 || r >= 8 {
			t.Fatalf("draw %v %d", d, r)
		}
		seen[r] = true
		sum += d
	}
	mean := sum / n
	if mean < 9*time.Second || mean > 11*time.Second {
		t.Fatalf("mean inter-arrival %v, want ≈10s", mean)
	}
	if len(seen) != 8 {
		t.Fatalf("victims %v", seen)
	}
}

func TestExponentialDeterministic(t *testing.T) {
	a, b := NewExponential(time.Second, 7), NewExponential(time.Second, 7)
	for i := 0; i < 10; i++ {
		d1, r1 := a.Next(4)
		d2, r2 := b.Next(4)
		if d1 != d2 || r1 != r2 {
			t.Fatal("same seed diverged")
		}
	}
}
