package ckpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// fill sets every exported field v reaches to a value other than its
// zero: numbers to n and up, bools true, strings, slices and maps to two
// and one elements, pointers (to a depth of three) to a filled target.
func fill(v reflect.Value, n, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("s", n))
	case reflect.Pointer:
		if depth < 3 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), n+1, depth+1)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, n+i, depth)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), n+i, depth)
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k, n, depth)
		fill(e, n+1, depth)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	}
}

// TestStateSizeOfPrograms: for every registered program kind with every
// field non-zero, mpi.StateSize is the length of its state's encoding,
// AppendProgram writes what EncodeProgram does, and appending into a
// buffer with room reuses it.
func TestStateSizeOfPrograms(t *testing.T) {
	for _, name := range []string{"nas.CG", "nas.BTModel", "nas.CGModel", "nas.Jacobi", "ckpt.toyProgram"} {
		p := mpi.NewProgram(name)
		if p == nil {
			t.Fatalf("no program kind %q", name)
		}
		fill(reflect.ValueOf(p).Elem(), 1, 0)
		if n, enc := mpi.StateSize(p), len(mpi.AppendState(nil, p)); n != enc {
			t.Errorf("%s: StateSize %d, encoding %d bytes", name, n, enc)
		}
		want, err := EncodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 3, len(want)+3)
		got, err := AppendProgram(buf[:0], p)
		if err != nil || !bytes.Equal(got, want) || &got[0] != &buf[0] {
			t.Errorf("%s: AppendProgram into a buffer with room gave %d bytes (same buffer %v, %v), want %d in place",
				name, len(got), &got[0] == &buf[0], err, len(want))
		}
	}
}

// TestImageRecordsRecycle: a rank's records and their App buffers come
// back once every holder has let go, at most maxFreeImages of each wait
// per rank, and the next record gets a buffer back.
func TestImageRecordsRecycle(t *testing.T) {
	k := sim.New(1)
	h, _ := hierSetup(k)
	app, _ := EncodeProgram(&toyProgram{Phase: 1, X: make([]float64, 64), Mem: 1 << 10})
	var stored []*Image
	for wave := 1; wave <= 4; wave++ {
		img := h.NewImage(0)
		img.Wave, img.App, img.Footprint = wave, append(img.App, app...), 1<<10
		h.Store(img, 0, 0, nil, nil)
		stored = append(stored, img)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	h.GC(5)
	if got, apps := h.ranks[0].nimages, h.ranks[0].napps; got != maxFreeImages || apps != maxFreeImages {
		t.Fatalf("rank 0 keeps %d free records and %d App buffers, want %d of each", got, apps, maxFreeImages)
	}
	for _, im := range stored {
		if im.holds != 0 || im.Wave != -1 || len(im.App) != 0 {
			t.Errorf("released record holds %d, wave %d, %d App bytes", im.holds, im.Wave, len(im.App))
		}
	}
	free := slices.Clone(h.ranks[0].images[:])
	next := h.NewImage(0)
	if !slices.Contains(free, next) || cap(next.App) < len(app) || next.Wave != 0 || next.home != h {
		t.Errorf("NewImage gave %p (cap %d, wave %d), want a released record with its buffer", next, cap(next.App), next.Wave)
	}
}

// TestImageRecordChurn runs seeded schedules of stores, cancels, fetches,
// log stores, buffer, server and PFS-target kills, GC and GCRank through a
// three-level hierarchy and checks, after every step and every few
// microseconds between them, that no record on a free list is reachable
// from a level or an open operation, that each reachable record counts at
// least the holders the test can see, and that a fetch delivers the
// capture it asked for.  Once everything has settled and every wave is
// collected, every record has come back.
func TestImageRecordChurn(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { churn(t, seed) })
	}
}

func churn(t *testing.T, seed int64) {
	const ranks, nodes, servers = 6, 3, 3
	rng := rand.New(rand.NewSource(seed))
	k := sim.New(seed)
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: nodes + servers + 2, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}})
	pool := make([]*Server, servers)
	for i := range pool {
		pool[i] = NewServer(net, i, nodes+i)
	}
	g := NewGroup(net, pool, 2, 1, nil)
	g.MaxRetries, g.Backoff = 1, time.Millisecond
	spec := (&Spec{Levels: []LevelSpec{
		{Kind: LevelBuffer},
		{Kind: LevelServers, Servers: servers, Replicas: 2, WriteQuorum: 1},
		{Kind: LevelPFS, Targets: 2, Stripes: 2},
	}}).Normalize()
	h := NewHierarchy(net, *spec, g, []int{nodes + servers, nodes + servers + 1})

	var (
		records []*Image
		stores  []Op
		fetches []*hierFetchOp
		capture = map[int]imgKey{} // a capture's serial (its program's Phase) → its rank and wave
		waves   = make([]int, ranks)
		serial  int
	)
	nodeOf := func(rank int) int { return rank % nodes }
	store := func() {
		r := rng.Intn(ranks)
		if waves[r] == 0 || rng.Intn(4) > 0 {
			waves[r]++ // else: the wave captured again, as after a rollback
		}
		img := h.NewImage(r)
		if !slices.Contains(records, img) {
			records = append(records, img)
		}
		serial++
		capture[serial] = imgKey{r, waves[r]}
		app, err := AppendProgram(img.App, &toyProgram{Phase: serial, X: make([]float64, 1+rng.Intn(64)), Mem: 1})
		if err != nil {
			t.Fatal(err)
		}
		img.Wave, img.App, img.Footprint = waves[r], app, int64(16<<10+rng.Intn(64<<10))
		stores = append(stores, h.Store(img, nodeOf(r), 0, nil, nil))
		if rng.Intn(3) == 0 {
			h.StoreLogs(r, waves[r], []*mpi.Packet{{Src: r, Dst: (r + 1) % ranks, Kind: mpi.KindPayload, VSize: 512}}, nodeOf(r), nil)
		}
	}
	fetch := func() {
		r := rng.Intn(ranks)
		if waves[r] == 0 {
			return
		}
		// A fetch asks for a wave at or above the rank's GC line, as a
		// restart does: below it a record may be retired.
		want := imgKey{r, max(waves[r]-rng.Intn(min(2, waves[r])), h.line(r))}
		op := h.Fetch(want.rank, want.wave, nodeOf(r), rng.Intn(2) == 0, func(img *Image, _ []*mpi.Packet) {
			p, err := DecodeProgram(img.App)
			if err != nil {
				t.Fatalf("fetch of %v delivered an image that does not decode: %v", want, err)
			}
			if got := capture[p.(*toyProgram).Phase]; got != want {
				t.Fatalf("fetch of %v delivered the capture of %v", want, got)
			}
		}, func(error) {})
		fetches = append(fetches, op.(*hierFetchOp))
	}
	check := func(when string) {
		refs, _ := inSight(h, pool, stores, fetches)
		for r := range h.ranks {
			for _, im := range h.ranks[r].images[:h.ranks[r].nimages] {
				if n := refs[im]; n > 0 || im.holds != 0 || im.Wave != -1 || len(im.App) != 0 || im.Rank != r {
					t.Fatalf("%s: free record of rank %d (holds %d, rank %d, wave %d, %d App bytes) is reachable %d times",
						when, r, im.holds, im.Rank, im.Wave, len(im.App), n)
				}
			}
		}
		for im, n := range refs {
			if im.home != nil && im.holds < n {
				t.Fatalf("%s: record rank %d wave %d counts %d holds, %d holders are in sight", when, im.Rank, im.Wave, im.holds, n)
			}
		}
	}

	for step := 0; step < 400; step++ {
		k.At(sim.Time(step)*sim.Time(200*time.Microsecond), func() {
			switch x := rng.Intn(100); {
			case x < 40:
				store()
			case x < 55:
				fetch()
			case x < 67:
				if len(stores) > 0 {
					stores[rng.Intn(len(stores))].Cancel()
				}
			case x < 70:
				h.KillBuffer(rng.Intn(nodes))
			case x < 72:
				pool[rng.Intn(servers)].Kill()
			case x < 73:
				h.KillPFSTarget(rng.Intn(2))
			case x < 87:
				r := rng.Intn(ranks)
				h.GCRank(r, waves[r]-rng.Intn(2))
			default:
				low := waves[0]
				for _, w := range waves {
					low = min(low, w)
				}
				h.GC(low)
			}
			check(fmt.Sprintf("step %d", step))
		})
	}
	for at := sim.Time(0); at < sim.Time(100*time.Millisecond); at += sim.Time(13 * time.Microsecond) {
		k.At(at, func() { check(fmt.Sprintf("t=%v", k.Now())) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	h.GC(1 << 30)
	check("after the last GC")
	for _, im := range records {
		if im.holds != 0 {
			t.Errorf("record rank %d wave %d still counts %d holds with every level collected and nothing in flight", im.Rank, im.Wave, im.holds)
		}
	}
	if len(records) >= serial {
		t.Errorf("%d captures took %d records: none was recycled", serial, len(records))
	}
}

// inSight counts the holders of image records a test can see: the entries
// of every level, the buffers' drains and the PFS stripe writes, and the
// legs of the stores and fetches it started.  reads counts the level
// entries and fetch legs among them, the holders that read a record's
// content.
func inSight(h *Hierarchy, pool []*Server, stores []Op, fetches []*hierFetchOp) (holds, reads map[*Image]int32) {
	holds, reads = map[*Image]int32{}, map[*Image]int32{}
	read := func(im *Image) {
		holds[im]++
		reads[im]++
	}
	for _, b := range h.buffers {
		for _, im := range b.images {
			read(im)
		}
		for _, d := range b.drains {
			if !d.Settled() {
				holds[d.img]++
			}
		}
	}
	for _, srv := range pool {
		for _, rs := range srv.ranks {
			for _, e := range rs.images {
				read(e.img)
			}
		}
	}
	for _, e := range h.pfs.images {
		read(e.img)
	}
	for _, im := range h.pfs.staging {
		holds[im]++
	}
	for _, op := range stores {
		switch op := op.(type) {
		case *hierOp:
			if op.leg != nil {
				holds[op.leg]++
			}
			if in, ok := op.inner.(*StoreOp); ok && !in.Settled() {
				holds[in.img]++
			}
		case *StoreOp:
			if !op.Settled() {
				holds[op.img]++
			}
		}
	}
	for _, op := range fetches {
		if op.leg != nil {
			read(op.leg)
		}
		if in, ok := op.inner.(*FetchOp); ok && in.img != nil {
			read(in.img)
		}
	}
	delete(holds, nil)
	delete(reads, nil)
	return holds, reads
}

// tracker is a sender's list of its log stores, kept as ftpm's procRun
// keeps its own: drop removes the settled ones in order and releases each
// (StoreOp.Release).
type tracker []*StoreOp

func (tr *tracker) drop() {
	*tr = slices.DeleteFunc(*tr, func(op *StoreOp) bool {
		if !op.Settled() {
			return false
		}
		op.Release()
		return true
	})
}

// pendingEvents calls fn with the callback and the argument of every
// argument-carrying event the kernel holds.  The kernel exports no view of
// its heap, so this reads it through reflection; a renamed field fails the
// test instead of hiding an event.
func pendingEvents(t *testing.T, k *sim.Kernel, fn func(callback, arg reflect.Value)) {
	kv := reflect.ValueOf(k).Elem()
	slab, heap := kv.FieldByName("slab"), kv.FieldByName("heap")
	if !slab.IsValid() || !heap.IsValid() {
		t.Fatal("sim.Kernel has no slab and heap to read pending events from")
	}
	argFn, okFn := slab.Type().Elem().FieldByName("argFn")
	arg, okArg := slab.Type().Elem().FieldByName("arg")
	if !okFn || !okArg {
		t.Fatal("sim.Kernel's event slot has no argFn and arg")
	}
	for i := 0; i < heap.Len(); i++ {
		s := slab.Index(int(heap.Index(i).Int()))
		if f, a := s.Field(argFn.Index[0]), s.Field(arg.Index[0]); !f.IsNil() && !a.IsNil() {
			fn(f, a.Elem())
		}
	}
}

// logRec is one log record of TestLogOpChurn and its store's sink.
type logRec struct {
	rank, wave int
	pkt        *mpi.Packet
	start      sim.Time // when its store started
	heard      int      // LogsStored calls
	cancelled  bool
	heardAt    int // heard when its op was cancelled
	onStored   func(*logRec)
}

func (r *logRec) LogsStored() { r.onStored(r) }

// TestLogOpChurn runs seeded schedules of one-record log stores at one and
// two replicas, write quorum 1, through server kills (before and after a
// flow's last byte left, so some deliveries are still pending), reboots,
// retries, sender cancels and tracker drops, some of them from inside a
// sink.  A server reboots on the senders' cluster or across a WAN of
// longer latency, so a retry can land while the aborted attempt's
// delivery is still pending.  After every step, and every few
// microseconds between them, no op on the group's free list may be
// reachable from a tracker, a server's in-progress list or a pending
// kernel event (a retry timer, a flow's completion or its delivery), and
// the free list holds each op once, emptied.  Each record's sink hears
// LogsStored at most once, never before one path latency after its store
// started (a stale delivery through a recycled op's flow would land it
// earlier), and exactly once unless its store was cancelled first or
// lost its quorum.
func TestLogOpChurn(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		for seed := int64(1); seed <= 16; seed++ {
			t.Run(fmt.Sprintf("replicas%d/seed%d", replicas, seed), func(t *testing.T) {
				logChurn(t, replicas, seed)
			})
		}
	}
}

func logChurn(t *testing.T, replicas int, seed int64) {
	const ranks, nodes, servers = 6, 3, 3
	const latency = 50 * time.Microsecond
	rng := rand.New(rand.NewSource(seed))
	k := sim.New(seed)
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{
		{Name: "near", Nodes: nodes + servers, NICBW: 100e6, Latency: latency},
		{Name: "far", Nodes: servers, NICBW: 100e6, Latency: latency},
	}, WanBW: 100e6, WanLatency: 20 * latency})
	// place puts server i on its node in the senders' cluster or across
	// the WAN.
	place := func(i int) int { return nodes + i + servers*rng.Intn(2) }
	pool := make([]*Server, servers)
	for i := range pool {
		pool[i] = NewServer(net, i, place(i))
	}
	g := NewGroup(net, pool, replicas, 1, nil)
	g.MaxRetries = 1 + rng.Intn(2)
	g.Backoff = sim.Time([]time.Duration{0, 20, 60, 150}[rng.Intn(4)] * time.Microsecond)
	col := obs.NewCollector()
	g.SetObs(obs.NewHub(col))

	var (
		recs     []*logRec
		trackers = make([]tracker, ranks)
		reused   int // stores that took an op from the free list
		late     int // transfers a kill aborted with their delivery pending
	)
	nodeOf := func(rank int) int { return rank % nodes }
	onStored := func(r *logRec) {
		if r.heard++; r.heard > 1 {
			t.Fatalf("record rank %d wave %d heard of its quorum %d times", r.rank, r.wave, r.heard)
		}
		if k.Now() < r.start+sim.Time(latency) {
			t.Fatalf("record rank %d wave %d heard of its quorum %v after its store started, under one path latency: another op's delivery landed it",
				r.rank, r.wave, k.Now()-r.start)
		}
		if rng.Intn(4) == 0 {
			trackers[r.rank].drop() // from inside the landing callback
		}
	}
	store := func() {
		r := &logRec{rank: rng.Intn(ranks), wave: len(recs) + 1, start: k.Now(), onStored: onStored}
		r.pkt = &mpi.Packet{Src: r.rank, Dst: (r.rank + 1) % ranks, Kind: mpi.KindPayload, PSeq: uint64(r.wave), VSize: int64(256 + rng.Intn(8<<10))}
		recs = append(recs, r)
		if len(g.free) > 0 {
			reused++
		}
		trackers[r.rank] = append(trackers[r.rank], g.StoreLogs(r.rank, r.wave, []*mpi.Packet{r.pkt}, nodeOf(r.rank), r))
	}
	cancel := func() {
		tr := trackers[rng.Intn(ranks)]
		if len(tr) == 0 {
			return
		}
		op := tr[rng.Intn(len(tr))]
		if r := op.sink.(*logRec); !op.cancelled {
			r.cancelled, r.heardAt = true, r.heard
		}
		op.Cancel()
	}
	// name is a pending event's callback.
	name := func(callback reflect.Value) string { return runtime.FuncForPC(callback.Pointer()).Name() }
	kill := func() {
		srv := pool[rng.Intn(servers)]
		if !srv.Alive() {
			return
		}
		inFlight := map[uintptr]bool{}
		for tr := srv.first; tr != nil; tr = tr.next {
			inFlight[reflect.ValueOf(tr.flow).Pointer()] = true
		}
		pendingEvents(t, k, func(callback, arg reflect.Value) {
			if arg.Kind() == reflect.Pointer && inFlight[arg.Pointer()] && name(callback) == "ftckpt/internal/simnet.deliverFlow" {
				late++
			}
		})
		srv.Kill()
		// Back, empty, after a while, maybe on the other side of the WAN
		// (set by hand, as in TestStoreLogsOwnsRecord: a killed server
		// stays dead in this model).
		k.After(sim.Time(rng.Intn(100))*sim.Time(time.Microsecond), func() {
			srv.dead, srv.Node = false, place(srv.Index)
		})
	}
	check := func(when string) {
		ops := map[*StoreOp]bool{}
		free := map[uintptr]bool{} // a free op's entries, transfers and first flows
		for _, op := range g.free {
			if ops[op] {
				t.Fatalf("%s: an op is on the free list twice", when)
			}
			ops[op] = true
			if op.g != g || op.sink != nil || op.pkts != nil || op.img != nil || len(op.replicas) != g.Replicas {
				t.Fatalf("%s: a free op keeps state: %+v", when, *op)
			}
			for j := range op.replicas {
				r := &op.replicas[j]
				if r.op != nil || r.flow != nil || r.timer != 0 {
					t.Fatalf("%s: a free op's replica entry keeps state", when)
				}
				for _, p := range []any{r, &r.transfer, &r.first} {
					free[reflect.ValueOf(p).Pointer()] = true
				}
			}
		}
		for rank, tr := range trackers {
			for _, op := range tr {
				if ops[op] {
					t.Fatalf("%s: rank %d's tracker holds a free op", when, rank)
				}
			}
		}
		for _, srv := range pool {
			for tr := srv.first; tr != nil; tr = tr.next {
				if free[reflect.ValueOf(tr).Pointer()] {
					t.Fatalf("%s: server %d's in-progress list reaches a free op", when, srv.Index)
				}
			}
		}
		pendingEvents(t, k, func(callback, arg reflect.Value) {
			if arg.Kind() == reflect.Pointer && free[arg.Pointer()] {
				t.Fatalf("%s: a pending %s reaches a free op", when, name(callback))
			}
		})
	}

	// Steps and checks each schedule their next, so the kernel holds two
	// events of the test's at a time and a check's walk stays short.
	var step, tick func(n int)
	step = func(n int) {
		if n < 1500 {
			k.After(sim.Time(7*time.Microsecond), func() { step(n + 1) })
		}
		switch x := rng.Intn(100); {
		case x < 45:
			store()
		case x < 55:
			cancel()
		case x < 60:
			kill()
		case x < 85:
			trackers[rng.Intn(ranks)].drop()
		}
		check(fmt.Sprintf("step %d", n))
	}
	tick = func(n int) {
		if n < 5000 {
			k.After(sim.Time(3*time.Microsecond), func() { tick(n + 1) })
		}
		check(fmt.Sprintf("t=%v", k.Now()))
	}
	k.At(0, func() { step(0) })
	k.At(0, func() { tick(0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range trackers {
		trackers[i].drop()
	}
	check("after the last drop")

	lost := map[int]bool{}
	for _, ev := range col.Filter(obs.EvQuorumLost) {
		lost[ev.Wave] = true
	}
	for _, r := range recs {
		want := 1
		switch {
		case r.cancelled:
			want = r.heardAt
		case lost[r.wave]:
			want = 0
		}
		if r.heard != want {
			t.Errorf("record rank %d wave %d heard of its quorum %d times, want %d (cancelled %v, quorum lost %v)",
				r.rank, r.wave, r.heard, want, r.cancelled, lost[r.wave])
		}
	}
	for i, tr := range trackers {
		if len(tr) != 0 {
			t.Errorf("rank %d's tracker keeps %d ops with nothing in flight", i, len(tr))
		}
	}
	t.Logf("%d stores, %d on a reused op, %d transfers aborted with a delivery pending, %d retries, %d ops on the free list at the end",
		len(recs), reused, late, col.Count(obs.EvStoreRetry), len(g.free))
	if reused == 0 || late == 0 || col.Count(obs.EvStoreRetry) == 0 {
		t.Errorf("the schedule reused %d ops, aborted %d transfers with a delivery pending and retried %d: it does not exercise the release rule",
			reused, late, col.Count(obs.EvStoreRetry))
	}
}

// TestRetiredImageChurn runs seeded schedules of captures, rollbacks that
// capture a wave number again, fetches, store cancels, buffer, server and
// PFS-target kills, and GC and GCRank raising the GC line while the
// drains, replica retries, PFS stripes and fetches of older waves are in
// flight, through a three-level hierarchy whose servers are slow enough
// that many of each are.  A fetch asks for a wave at or above its rank's
// GC line, as a restart does.  After every step and every few
// microseconds between them:
//   - no fetch delivers a retired record, and each delivers the capture
//     it asked for;
//   - every store and drain of a capture, begun or landed, retry or not,
//     retired record or not, carries the size the capture had when its
//     store began;
//   - no App buffer on a rank's free list is the App of a record a level
//     entry or a fetch leg can read, or of any record not retired;
//   - each record counts at least the holders and readers in sight.
//
// It fails on the mutants "retire without checking the GC line" (a buffer
// kill then retires a record its drain still carries to a server that a
// later fetch reads) and "retire while a fetch leg holds the record" (a
// GC that passes a fetch in flight then retires what it delivers).
func TestRetiredImageChurn(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { retireChurn(t, seed) })
	}
}

func retireChurn(t *testing.T, seed int64) {
	const ranks, nodes, servers = 4, 2, 3
	rng := rand.New(rand.NewSource(seed))
	k := sim.New(seed)
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: nodes + servers + 2, NICBW: 50e6, Latency: 50 * time.Microsecond,
	}}})
	pool := make([]*Server, servers)
	for i := range pool {
		pool[i] = NewServer(net, i, nodes+i)
	}
	g := NewGroup(net, pool, 2, 1, nil)
	g.MaxRetries, g.Backoff = 2, 300*time.Microsecond
	spec := (&Spec{Levels: []LevelSpec{
		{Kind: LevelBuffer},
		{Kind: LevelServers, Servers: servers, Replicas: 2, WriteQuorum: 1},
		{Kind: LevelPFS, Targets: 2, Stripes: 2},
	}}).Normalize()
	h := NewHierarchy(net, *spec, g, []int{nodes + servers, nodes + servers + 1})
	var (
		lateLandings int // stores and drains that landed below the line
		col          = obs.NewCollector()
	)
	h.SetObs(obs.NewHub(col, sinkFunc(func(ev obs.Event) {
		if (ev.Type == obs.EvImageStoreEnd || ev.Type == obs.EvDrainEnd) && ev.Wave < h.line(ev.Rank) {
			lateLandings++
		}
	})))

	var (
		stores                 []Op
		fetches                []*hierFetchOp
		capture                = map[int]imgKey{} // a capture's serial (its program's Phase) → its rank and wave
		sizes                  = map[imgKey][]int64{}
		serialOf               = map[*Image]int{} // the capture a record holds
		sizeOf                 = map[int]int64{}  // a capture's size when its store began
		wave                   = 1                // the wave the ranks capture
		retired, passedFetches int
	)
	nodeOf := func(rank int) int { return rank % nodes }
	back := func() sim.Time { return sim.Time(1+rng.Intn(3000)) * sim.Time(time.Microsecond) }
	store := func() {
		r := rng.Intn(ranks)
		img := h.NewImage(r)
		serial := len(capture) + 1
		capture[serial] = imgKey{r, wave}
		app, err := AppendProgram(img.App, &toyProgram{Phase: serial, X: make([]float64, 1+rng.Intn(64)), Mem: 1})
		if err != nil {
			t.Fatal(err)
		}
		img.Wave, img.App, img.Footprint = wave, app, int64(32<<10+rng.Intn(96<<10))
		serialOf[img], sizeOf[serial] = serial, img.Bytes()
		sizes[imgKey{r, wave}] = append(sizes[imgKey{r, wave}], img.Bytes())
		stores = append(stores, h.Store(img, nodeOf(r), 0, nil, nil))
	}
	fetch := func() {
		r := rng.Intn(ranks)
		want := imgKey{r, h.line(r) + rng.Intn(wave-h.line(r)+1)}
		// The restarted rank may land on a node whose buffer lacks the
		// image: the fetch falls to the servers or the PFS.
		op := h.Fetch(want.rank, want.wave, rng.Intn(nodes), false, func(img *Image, _ []*mpi.Packet) {
			if img.size != 0 {
				t.Fatalf("fetch of %v delivered a retired record", want)
			}
			p, err := DecodeProgram(img.App)
			if err != nil {
				t.Fatalf("fetch of %v delivered an image that does not decode: %v", want, err)
			}
			if got := capture[p.(*toyProgram).Phase]; got != want {
				t.Fatalf("fetch of %v delivered the capture of %v", want, got)
			}
			if want.wave < h.line(r) {
				passedFetches++
			}
		}, func(error) {})
		fetches = append(fetches, op.(*hierFetchOp))
		if rng.Intn(2) == 0 {
			// A commit while the fetch is in flight passes its wave.
			k.After(sim.Time(rng.Intn(400))*sim.Time(time.Microsecond), func() {
				wave = max(wave, want.wave+1)
				h.GCRank(r, want.wave+1)
			})
		}
	}
	check := func(when string) {
		holds, reads := inSight(h, pool, stores, fetches)
		readable := map[*byte]bool{} // the App buffers a reader can read, or a live record will
		for im, n := range holds {
			if im.holds < n || im.reads < reads[im] {
				t.Fatalf("%s: record rank %d wave %d counts %d holds and %d reads, %d and %d are in sight",
					when, im.Rank, im.Wave, im.holds, im.reads, n, reads[im])
			}
			if im.size != 0 {
				if im.App != nil || im.Engine != nil || im.Device != nil {
					t.Fatalf("%s: retired record rank %d wave %d keeps its content", when, im.Rank, im.Wave)
				}
				if l := h.line(im.Rank); im.Wave >= l {
					t.Fatalf("%s: record rank %d wave %d is retired at or above its GC line %d", when, im.Rank, im.Wave, l)
				}
				if want := sizeOf[serialOf[im]]; im.Bytes() != want || im.StoredBytes() != want || im.RestoreBytes() != want {
					t.Fatalf("%s: retired record rank %d wave %d reads %d bytes, its store began with %d", when, im.Rank, im.Wave, im.Bytes(), want)
				}
				retired++
				continue
			}
			if cap(im.App) > 0 {
				readable[unsafe.SliceData(im.App[:1])] = true
			}
		}
		for _, op := range fetches {
			in, _ := op.inner.(*FetchOp)
			if op.leg != nil && op.leg.size != 0 || in != nil && in.img != nil && in.img.size != 0 {
				t.Fatalf("%s: a fetch of rank %d wave %d holds a retired record", when, op.rank, op.wave)
			}
		}
		for r := range h.ranks {
			free := &h.ranks[r]
			for _, app := range free.apps[:free.napps] {
				if readable[unsafe.SliceData(app[:1])] {
					t.Fatalf("%s: an App buffer on rank %d's free list is the App of a record that is not retired", when, r)
				}
			}
			for _, im := range free.images[:free.nimages] {
				if holds[im] > 0 || im.holds != 0 || im.reads != 0 || im.Wave != -1 || im.App != nil || im.size != 0 {
					t.Fatalf("%s: free record of rank %d (holds %d, reads %d, wave %d) is in sight %d times",
						when, r, im.holds, im.reads, im.Wave, holds[im])
				}
			}
		}
	}

	for step := 0; step < 500; step++ {
		k.At(sim.Time(step)*sim.Time(150*time.Microsecond), func() {
			switch x := rng.Intn(100); {
			case x < 35:
				store()
			case x < 45:
				wave++
			case x < 60:
				fetch()
			case x < 66:
				if len(stores) > 0 {
					stores[rng.Intn(len(stores))].Cancel()
				}
			case x < 70:
				// Kills, each undone by hand a while later (a killed
				// device stays dead in this model), so that the levels
				// keep filling.
				n := rng.Intn(nodes)
				if h.KillBuffer(n) {
					k.After(back(), func() { h.buffers[n].dead = false })
				}
			case x < 72:
				srv := pool[rng.Intn(servers)]
				if srv.Alive() {
					srv.Kill()
					k.After(back(), func() { srv.dead = false })
				}
			case x < 73:
				tg := rng.Intn(2)
				if h.KillPFSTarget(tg) {
					k.After(back(), func() { h.pfs.dead[tg] = false })
				}
			case x < 76:
				// Rollback: capture again from the wave after the highest
				// line, over wave numbers some of whose stores are in
				// flight.
				top := 0
				for r := 0; r < ranks; r++ {
					top = max(top, h.line(r))
				}
				wave = top + 1
			case x < 86:
				r := rng.Intn(ranks)
				h.GCRank(r, h.line(r)+rng.Intn(wave-h.line(r)+1))
			default:
				h.GC(h.gcLine + rng.Intn(wave-h.gcLine+1))
			}
			check(fmt.Sprintf("step %d", step))
		})
	}
	for at := sim.Time(0); at < sim.Time(200*time.Millisecond); at += sim.Time(37 * time.Microsecond) {
		k.At(at, func() { check(fmt.Sprintf("t=%v", k.Now())) })
	}
	func() {
		// A delivery of a retired record panics (Image.check).
		defer func() {
			if p := recover(); p != nil {
				t.Fatal(p)
			}
		}()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}()
	for _, typ := range []obs.EventType{obs.EvImageStoreBegin, obs.EvImageStoreEnd, obs.EvDrainBegin, obs.EvDrainEnd} {
		for _, ev := range col.Filter(typ) {
			if !slices.Contains(sizes[imgKey{ev.Rank, ev.Wave}], ev.Bytes) {
				t.Fatalf("%v of rank %d wave %d at %v carries %d bytes, no capture of that wave began with it (%v)",
					typ, ev.Rank, ev.Wave, ev.T, ev.Bytes, sizes[imgKey{ev.Rank, ev.Wave}])
			}
		}
	}
	t.Logf("%d captures, %d sightings of retired records, %d landings below the line, %d fetches the line passed in flight, %d retries",
		len(capture), retired, lateLandings, passedFetches, col.Count(obs.EvStoreRetry))
	if retired == 0 || lateLandings == 0 || passedFetches == 0 || col.Count(obs.EvStoreRetry) == 0 {
		t.Errorf("the schedule saw %d sightings of retired records, %d landings below the line, %d fetches the line passed and %d retries: it does not exercise retirement",
			retired, lateLandings, passedFetches, col.Count(obs.EvStoreRetry))
	}
}

// sinkFunc is an obs.Sink that hands each event to a function.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(ev obs.Event) { f(ev) }

// TestStalledDrainsReuseImageBuffers runs 24 waves of four ranks through a
// buffer → servers → PFS hierarchy whose images are too big for any drain
// to reach a server before the last wave: each wave commits when its
// buffer writes land and collects the wave before it, as ftpm does.  The
// drains hold every record, so records are not recycled; but a collected
// record is retired, and after two waves of warm-up every capture encodes
// into an App buffer its rank already had.
func TestStalledDrainsReuseImageBuffers(t *testing.T) {
	const ranks, nodes, waves, warmup = 4, 2, 24, 2
	k := sim.New(1)
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: nodes + 4, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}})
	pool := []*Server{NewServer(net, 0, nodes), NewServer(net, 1, nodes+1)}
	g := NewGroup(net, pool, 2, 1, nil)
	spec := (&Spec{Levels: []LevelSpec{
		{Kind: LevelBuffer},
		{Kind: LevelServers, Servers: 2, Replicas: 2, WriteQuorum: 1},
		{Kind: LevelPFS, Targets: 2, Stripes: 2},
	}}).Normalize()
	h := NewHierarchy(net, *spec, g, []int{nodes + 2, nodes + 3})
	col := obs.NewCollector()
	h.SetObs(obs.NewHub(col))

	seen := make([]map[*byte]bool, ranks) // each rank's App buffers
	for r := range seen {
		seen[r] = map[*byte]bool{}
	}
	fresh, drained := 0, 0
	for w := 1; w <= waves; w++ {
		k.At(sim.Time(w)*sim.Time(time.Second), func() {
			drained = col.Count(obs.EvDrainEnd)
			stored := 0
			for r := 0; r < ranks; r++ {
				img := h.NewImage(r)
				app, err := AppendProgram(img.App, &toyProgram{Phase: w, X: make([]float64, 512), Mem: 1})
				if err != nil {
					t.Fatal(err)
				}
				// 1 GB: half a second into the buffer, ten seconds
				// alone to a server, and the wave's drains share the
				// servers' NICs with every earlier wave's.
				img.Wave, img.App, img.Footprint = w, app, 1<<30
				if p := unsafe.SliceData(app); !seen[r][p] {
					seen[r][p] = true
					if w > warmup {
						fresh++
					}
				}
				h.Store(img, r%nodes, 0, func() {
					if stored++; stored == ranks {
						h.GC(w) // the wave commits
					}
				}, nil)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if drained != 0 {
		t.Fatalf("%d drains landed before the last wave's captures: the drains do not stall", drained)
	}
	if fresh != 0 {
		t.Errorf("after %d waves of warm-up, %d of %d captures encoded into a new App buffer", warmup, fresh, ranks*(waves-warmup))
	}
}
