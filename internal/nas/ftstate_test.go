package nas

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ftckpt/internal/mpi"
)

// fill gives every element of v a distinct value derived from seed.
func fill(seed float64, vs ...[]float64) {
	for k, v := range vs {
		for i := range v {
			v[i] = seed + float64(100*k+i)/7
		}
	}
}

// TestCGSnapshotExactSize: the blob is allocated at its final length and
// rolls the solver back to the state it captured.
func TestCGSnapshotExactSize(t *testing.T) {
	c := NewCG(1, 4, 64, 7, 10)
	fill(1, c.X, c.R, c.P)
	c.It, c.RR = 3, 0.25
	blob := c.ftEncode()
	if len(blob) != cap(blob) {
		t.Fatalf("blob len %d, cap %d: not allocated at its exact size", len(blob), cap(blob))
	}
	x, r, p := slices.Clone(c.X), slices.Clone(c.R), slices.Clone(c.P)
	c.own[1] = ftSnap{level: 3, blob: blob}

	fill(-5, c.X, c.R, c.P)
	c.It, c.RR, c.Phase = 9, 4, cgMatvec
	if !c.FTRollback(3) {
		t.Fatal("FTRollback(3) refused its own snapshot")
	}
	if c.It != 3 || c.RR != 0.25 || c.Phase != cgGatherP ||
		!slices.Equal(c.X, x) || !slices.Equal(c.R, r) || !slices.Equal(c.P, p) {
		t.Fatalf("rollback restored It=%d RR=%v phase=%d and different vectors", c.It, c.RR, c.Phase)
	}
}

// TestSnapshotLayout: a partner snapshot is its scalars as 8-byte words,
// then each vector's length and float64 bits, all little-endian — the
// layout the blobs had before they were written by the state codec, so a
// ULFM exchange ships the bytes it always did.
func TestSnapshotLayout(t *testing.T) {
	layout := func(it int, x float64, vecs ...[]float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(it))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		for _, v := range vecs {
			b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
			for _, f := range v {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
		}
		return b
	}
	c := NewCG(1, 4, 64, 7, 10)
	fill(1, c.X, c.R, c.P)
	c.It, c.RR = 3, 0.25
	if got, want := c.ftEncode(), layout(3, 0.25, c.X, c.R, c.P); !bytes.Equal(got, want) {
		t.Errorf("CG snapshot is %d bytes, differs from the %d-byte layout", len(got), len(want))
	}
	j := NewJacobi(1, 4, 16, 100)
	fill(2, j.Cur, j.New)
	j.It, j.Residual = 20, -0.5
	if got, want := j.ftEncode(), layout(20, -0.5, j.Cur, j.New); !bytes.Equal(got, want) {
		t.Errorf("Jacobi snapshot is %d bytes, differs from the %d-byte layout", len(got), len(want))
	}
	// A blob of another problem shape is refused.
	if c.FTInstall(j.ftEncode()) || c.FTInstall(NewCG(1, 4, 128, 7, 10).ftEncode()) {
		t.Error("CG installed a snapshot of another shape")
	}
}

// programKinds are the Program kinds this package registers.
var programKinds = []string{"nas.CG", "nas.BTModel", "nas.CGModel", "nas.Jacobi"}

// TestProgramStateRoundTrip: every registered kind, with every exported
// field non-zero, comes back from its encoding deep-equal, and encodes to
// the same bytes whether or not other kinds were encoded first.  Unexported
// state (partner snapshots, CG's matrix cache) stays out of the encoding.
func TestProgramStateRoundTrip(t *testing.T) {
	for i, name := range programKinds {
		p := mpi.NewProgram(name)
		v := reflect.ValueOf(p).Elem()
		for f := 0; f < v.NumField(); f++ {
			fv := v.Field(f)
			if !fv.CanSet() {
				continue
			}
			n := 10*i + f + 1
			switch fv.Kind() {
			case reflect.Int, reflect.Int64:
				fv.SetInt(int64(n))
			case reflect.Bool:
				fv.SetBool(true)
			case reflect.Float64:
				fv.SetFloat(float64(n) + 0.25)
			case reflect.Slice:
				fv.Set(reflect.ValueOf([]float64{float64(n), -1 / float64(n)}))
			default:
				t.Fatalf("%s.%s: no filler for %s", name, v.Type().Field(f).Name, fv.Type())
			}
		}
		b := mpi.AppendState(nil, p)
		q := mpi.NewProgram(name)
		if err := mpi.LoadState(b, q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%s: decoded %+v, want %+v", name, q, p)
		}
		for _, other := range programKinds {
			mpi.AppendState(nil, mpi.NewProgram(other))
		}
		if again := mpi.AppendState(nil, p); !bytes.Equal(again, b) {
			t.Errorf("%s: encodes to other bytes after the other kinds were encoded", name)
		}
	}
	c := NewCG(0, 2, 8, 1, 5)
	before := mpi.AppendState(nil, c)
	c.SetFTEvery(3)
	c.ensureMatrix()
	c.own[1] = ftSnap{level: 1, blob: c.ftEncode()}
	if !bytes.Equal(mpi.AppendState(nil, c), before) {
		t.Error("CG's unexported state reached its encoding")
	}
}

func TestJacobiSnapshotExactSize(t *testing.T) {
	j := NewJacobi(1, 4, 16, 100)
	fill(2, j.Cur, j.New)
	j.It, j.Residual = 20, 0.5
	blob := j.ftEncode()
	if len(blob) != cap(blob) {
		t.Fatalf("blob len %d, cap %d: not allocated at its exact size", len(blob), cap(blob))
	}
	cur, nw := slices.Clone(j.Cur), slices.Clone(j.New)
	j.own[1] = ftSnap{level: 20, blob: blob}

	fill(-3, j.Cur, j.New)
	j.It, j.Residual, j.Phase = 27, 9, jacCompute
	if !j.FTRollback(20) {
		t.Fatal("FTRollback(20) refused its own snapshot")
	}
	if j.It != 20 || j.Residual != 0.5 || j.Phase != jacExchUp ||
		!slices.Equal(j.Cur, cur) || !slices.Equal(j.New, nw) {
		t.Fatalf("rollback restored It=%d Residual=%v phase=%d and different slabs", j.It, j.Residual, j.Phase)
	}
}

// TestJacobiHaloLength: a halo decodes straight into its ghost row, so a
// row of the wrong length must panic rather than spill into the next row.
func TestJacobiHaloLength(t *testing.T) {
	const n = 8
	j := NewJacobi(2, 4, 4*n, 100)
	row := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	j.recvHalo(j.Cur[:n], &mpi.Packet{Data: mpi.EncodeF64s(row)}, jacTagDown)
	if !slices.Equal(j.Cur[:n], row) {
		t.Fatalf("ghost row %v, want %v", j.Cur[:n], row)
	}

	next := slices.Clone(j.Cur[n : 2*n])
	for _, m := range []int{n + 1, n - 1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "rank 2") || !strings.Contains(msg, "tag 61") {
					t.Errorf("halo of %d values: panic %q, want one naming rank 2 and tag 61", m, msg)
				}
			}()
			j.recvHalo(j.Cur[:n], &mpi.Packet{Data: mpi.EncodeF64s(make([]float64, m))}, jacTagDown)
		}()
	}
	if !slices.Equal(j.Cur[:n], row) || !slices.Equal(j.Cur[n:2*n], next) {
		t.Fatal("a rejected halo still wrote the slab")
	}
}
