package mpi

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"testing"
)

// TestStateLayout pins the codec's layout on one value of every kind it
// writes, that StateSize measures it, and that LoadState refuses what no
// encoding holds.
func TestStateLayout(t *testing.T) {
	type inner struct{ B bool }
	type all struct {
		I8     int8
		U16    uint16
		F      float64
		S      string
		Bs     []byte
		M      map[int]int8
		Nil    *inner
		Ptr    *inner
		hidden int
	}
	v := all{I8: -2, U16: 7, F: 0.5, S: "ab", Bs: []byte{9}, M: map[int]int8{3: 1, -1: 2},
		Ptr: &inner{true}, hidden: 99}
	w := func(b []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(b, x) }
	want := w(w(nil, math.MaxUint64-1), 7)                 // I8, U16
	want = w(want, math.Float64bits(0.5))                  // F
	want = append(w(want, 2), "ab"...)                     // S
	want = append(w(want, 1), 9)                           // Bs
	want = w(w(w(w(w(want, 2), math.MaxUint64), 2), 3), 1) // M, keys ascending
	want = append(want, 0, 1, 1)                           // Nil, Ptr, Ptr.B
	if got := AppendState(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("encoded\n%x\nwant\n%x", got, want)
	}
	if !bytes.Equal(AppendState(nil, &v), want) {
		t.Error("a pointer to the value encodes differently")
	}
	if n := StateSize(v); n != len(want) || StateSize(&v) != n {
		t.Errorf("StateSize %d (%d through a pointer), want %d", n, StateSize(&v), len(want))
	}
	var got all
	if err := LoadState(want, &got); err != nil || got.M[-1] != 2 || !got.Ptr.B || got.Nil != nil || got.hidden != 0 {
		t.Errorf("decoded %+v (%v)", got, err)
	}
	var (
		i8 int8
		u8 uint8
		bl bool
		p  *inner
		us []uint16
	)
	for _, c := range []struct {
		name string
		b    []byte
		into any
	}{
		{"int8 overflow", w(nil, 200), &i8},
		{"uint8 overflow", w(nil, 300), &u8},
		{"bool byte 2", []byte{2}, &bl},
		{"presence byte 2", []byte{2}, &p},
		{"overlong slice", w(nil, 2), &us},
		{"trailing byte", []byte{0, 0}, &bl},
	} {
		if err := LoadState(c.b, c.into); err == nil {
			t.Errorf("%s: decoded without an error", c.name)
		}
	}
}

// TestAppendStateMapAllocs: a map[int]uint64, a protocol's per-peer
// sequence numbers, encodes without boxing a key or a value, so into a
// buffer with room it allocates nothing; and it encodes and measures as
// any other integer-keyed map does (map[int64]uint64 takes the general
// path), past the 64 keys that sort on the stack too.
func TestAppendStateMapAllocs(t *testing.T) {
	m := map[int]uint64{}
	for i := 0; i < 64; i++ {
		m[(i*37)%64-20] = uint64(i) << 40
	}
	buf := make([]byte, 0, StateSize(m))
	if n := testing.AllocsPerRun(100, func() { AppendState(buf, m) }); n != 0 {
		t.Errorf("%v allocations to encode a map of %d entries, want 0", n, len(m))
	}
	for _, extra := range []int{0, 1, 200} {
		for i := 0; i < extra; i++ {
			m[1000+i] = uint64(i)
		}
		general := map[int64]uint64{}
		for k, v := range m {
			general[int64(k)] = v
		}
		got, want := AppendState(nil, m), AppendState(nil, general)
		if !bytes.Equal(got, want) {
			t.Errorf("%d entries: map[int]uint64 encodes to\n%x\nmap[int64]uint64 to\n%x", len(m), got, want)
		}
		if StateSize(m) != len(got) || StateSize(general) != len(want) {
			t.Errorf("%d entries: StateSize %d and %d, encodings %d bytes", len(m), StateSize(m), StateSize(general), len(got))
		}
		var back map[int]uint64
		if err := LoadState(got, &back); err != nil || !maps.Equal(back, m) {
			t.Errorf("%d entries: decoded %v (%v)", len(m), back, err)
		}
	}
}
