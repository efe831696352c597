package ckpt

import (
	"bytes"
	"runtime"
	"testing"

	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
)

// FuzzDecodeProgram: any bytes decode to a program or an error, never a
// panic, and no length in them makes the decode allocate more than a small
// multiple of their size; a program that decodes re-encodes to the same
// bytes, whose state mpi.StateSize measures.  The seeds are every registered kind's encoding; the committed
// corpus (testdata/fuzz/FuzzDecodeProgram) adds malformed ones.
func FuzzDecodeProgram(f *testing.F) {
	for _, p := range []mpi.Program{
		&toyProgram{Phase: 1, X: []float64{2, -0.5}, Mem: 3},
		nas.NewCG(1, 4, 64, 7, 10),
		nas.NewJacobi(0, 2, 8, 5),
		nas.NewBTModel(nas.BTClassA, 1, 4),
		nas.NewCGModel(nas.CGClassA, 1, 4),
	} {
		b, err := EncodeProgram(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodeProgram(b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(b))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		if again, err := EncodeProgram(p); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("decoded %T re-encodes to %d other bytes (%v)", p, len(again), err)
		}
		if n, enc := mpi.StateSize(p), len(mpi.AppendState(nil, p)); n != enc {
			t.Fatalf("decoded %T: StateSize %d, encoding %d bytes", p, n, enc)
		}
	})
}
