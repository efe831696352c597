package core

import "testing"

func TestRankSet(t *testing.T) {
	const n = 130 // three words, the last partly used
	s := NewRankSet(n)
	if len(s) != 3 {
		t.Fatalf("%d words for %d ranks, want 3", len(s), n)
	}
	in := map[int]bool{0: true, 63: true, 64: true, 129: true}
	for r := range in {
		s.Set(r)
	}
	s.Set(64) // twice is once
	for r := 0; r < n; r++ {
		if s.Has(r) != in[r] {
			t.Errorf("Has(%d) = %v, want %v", r, s.Has(r), in[r])
		}
	}
	s.Clear()
	for r := 0; r < n; r++ {
		if s.Has(r) {
			t.Errorf("Has(%d) after Clear", r)
		}
	}
}
