package nas

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
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
	blob := c.ftEncode(nil)
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
	if got, want := c.ftEncode(nil), layout(3, 0.25, c.X, c.R, c.P); !bytes.Equal(got, want) {
		t.Errorf("CG snapshot is %d bytes, differs from the %d-byte layout", len(got), len(want))
	}
	j := NewJacobi(1, 4, 16, 100)
	fill(2, j.Cur, j.New)
	j.It, j.Residual = 20, -0.5
	if got, want := j.ftEncode(nil), layout(20, -0.5, j.Cur, j.New); !bytes.Equal(got, want) {
		t.Errorf("Jacobi snapshot is %d bytes, differs from the %d-byte layout", len(got), len(want))
	}
	// A blob of another problem shape is refused.
	if c.FTInstall(j.ftEncode(nil)) || c.FTInstall(NewCG(1, 4, 128, 7, 10).ftEncode(nil)) {
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
	c.own[1] = ftSnap{level: 1, blob: c.ftEncode(nil)}
	if !bytes.Equal(mpi.AppendState(nil, c), before) {
		t.Error("CG's unexported state reached its encoding")
	}
}

func TestJacobiSnapshotExactSize(t *testing.T) {
	j := NewJacobi(1, 4, 16, 100)
	fill(2, j.Cur, j.New)
	j.It, j.Residual = 20, 0.5
	blob := j.ftEncode(nil)
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

// TestJacobiHaloLength: a halo decodes straight into its ghost row
// (mpi.Engine.SendrecvF64s), so a row of the wrong length must panic
// rather than spill into the next row.
func TestJacobiHaloLength(t *testing.T) {
	const n = 8
	row := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	topo := simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: 2, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}}
	for _, m := range []int{n, n + 1, n - 1} {
		j := NewJacobi(1, 2, n, 100)
		ghost, next := slices.Clone(j.Cur[:n]), slices.Clone(j.Cur[n:2*n])
		err := mpi.NewWorld(sim.New(1), topo, mpi.Profile{}, 2, 1).Run(func(e *mpi.Engine) {
			if e.Rank() == 1 {
				j.Step(e) // jacExchUp: rank 1 trades rows with rank 0
				return
			}
			halo := append(slices.Clone(row), 9)[:m]
			e.SendrecvF64s(1, jacTagDown, halo, 1, jacTagUp, make([]float64, n))
		})
		if m == n {
			if err != nil || !slices.Equal(j.Cur[:n], row) {
				t.Fatalf("ghost row %v (err %v), want %v", j.Cur[:n], err, row)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "tag 61") {
			t.Errorf("halo of %d values: error %v, want a panic naming rank 1 and tag 61", m, err)
		}
		if !slices.Equal(j.Cur[:n], ghost) || !slices.Equal(j.Cur[n:2*n], next) {
			t.Errorf("a rejected halo of %d values still wrote the slab", m)
		}
	}
}

// TestFTExchangeAllocs: a partner-snapshot exchange allocates nothing once
// warm.  ftEncode writes into the buffer of the own level the exchange
// drops, the copy on the wire is an owned buffer its receiver gives back
// to the fabric, and the received copy lands in the buffer of the dropped
// peer level.  Each rank ends holding its left neighbour's last snapshot.
func TestFTExchangeAllocs(t *testing.T) {
	const np, runs = 2, 50
	topo := simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: np, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}}
	js := []*Jacobi{NewJacobi(0, np, 16, 100), NewJacobi(1, np, 16, 100)}
	var allocs float64
	err := mpi.NewWorld(sim.New(1), topo, mpi.Profile{}, np, 1).Run(func(e *mpi.Engine) {
		j := js[e.Rank()]
		fill(float64(e.Rank()), j.Cur, j.New)
		exchange := func() {
			j.It++
			j.Cur[0] = float64(j.It)
			j.ftExchange(e, j.Rank, np, j.It, j.ftEncode)
		}
		exchange() // both levels' buffers, the links and the spare list
		exchange()
		if e.Rank() == 1 {
			for range runs + 1 { // AllocsPerRun makes one warm-up call
				exchange()
			}
			return
		}
		allocs = testing.AllocsPerRun(runs, exchange)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("%v allocations per partner-snapshot exchange, want 0", allocs)
	}
	for r, j := range js {
		left := js[(r+np-1)%np]
		got, ok := j.FTPeerSnapshot(left.Rank, left.It)
		if !ok || !bytes.Equal(got, left.own[1].blob) || left.FTLatest() != left.It {
			t.Errorf("rank %d does not hold rank %d's snapshot of iteration %d", r, left.Rank, left.It)
		}
	}
}
