package ftckpt

// The scenario table: every run the root package's golden, pinned and
// kernel-budget tests make is one named row, with the checks that ride on
// it.  A row's first run is made once per test process and every check
// reads that one result; only the row's repeats run it again.  The golden
// test that names a row runs its post, recorded, same and repeat checks
// (checkRow); DESIGN §5.8 lists the columns and the tests that read each.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ftckpt/internal/obs"
)

type scenario struct {
	name string
	opts Options
	// chaos runs the row through Chaos under this spec; the result holds
	// the ChaosReport and the event stream only.
	chaos  *ChaosSpec
	pinned bool // hashes in testdata/golden_pinned.json
	repeat int  // further runs in the same process that must equal the first
	// recorded: sha256 of the Report, metrics JSON and Chrome trace, taken
	// (amd64) with the replication knobs in their old flat form.
	recorded [3]string
	same     string                    // the row this row must equal on every artifact
	post     func(*testing.T, *result) // post-conditions on the first run
	budget   *budget                   // what one run without sinks may cost
}

type budget struct {
	mallocs, bytes uint64    // recorded; TestAllocCeilings allows +3 % and +5 %; 0: not gated
	heapPerRank    int       // event-heap high-water bound per rank; 0: not gated
	counts         [4]uint64 // pinned scheduled, fired, cancelled, LP resumes; zero: not pinned
}

// gridReplicatedReport is the Report of grid-pcl-16-replicated, recorded
// like the hashes of the replicated rows: 10 waves, 5250.2 MB stored.
const gridReplicatedReport = "{Completion:1m58.516531991s Waves:10 LocalCheckpoints:176 Restarts:0 " +
	"Messages:22300 PayloadMB:750.0022888183594 CheckpointMB:5250.167500495911 LoggedMessages:0 " +
	"LoggedMB:0 Checksum:64.00000000000003 Repairs:0 LostWork:0s RecoveredWork:1 ServerFailures:0 " +
	"Failovers:0 MeanWaveSpread:37.006µs MeanWaveTransfer:8.742899839s MeanWaveCycle:8.80762661s " +
	"Metrics:<nil> Attribution:<nil>}"

// replicatedTier is servers checkpoint servers, two copies of every image,
// a write quorum of one and two retries 1 ms apart.
func replicatedTier(servers int) *StorageSpec {
	return &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: servers,
		Replicas: 2, WriteQuorum: 1, StoreRetries: 2, RetryBackoff: time.Millisecond}}}
}

var scenarios = func() []scenario {
	const ms, s = time.Millisecond, time.Second
	bt := func(p Protocol, np, servers int, interval time.Duration, seed int64, kills ...Failure) Options {
		return Options{Workload: WorkloadBT, Class: ClassA, NP: np, ProcsPerNode: 2, Protocol: p,
			Interval: interval, Servers: servers, Seed: seed, Failures: kills}
	}
	spelled := func(p Protocol) Options { // pcl-64 &c. with Servers: 4 as the Storage it stands for
		o := bt(p, 64, 0, 2*s, 42, KillRank(3*s, 21))
		o.Storage = &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: 4}}}
		return o
	}
	grid := func(p Protocol, st *StorageSpec) Options {
		o := bt(p, 16, 0, 2*s, 9)
		o.Platform, o.Storage = PlatformGrid, st
		return o
	}
	kernel := func(p Protocol, np int, interval time.Duration) Options {
		o := bt(p, np, 4, interval, 1)
		o.VclProcessLimit = -1
		return o
	}
	ulfm := func(p Protocol, kill Failure) Options {
		return Options{Workload: WorkloadJacobi, NP: 8, Protocol: p, Interval: 25 * ms, Servers: 2,
			Recovery: RecoveryULFM, Spares: 2, Seed: 5, Failures: []Failure{kill}}
	}
	jacobi := func(p Protocol) Options { // restart mode, one rank kill
		return Options{Workload: WorkloadJacobi, NP: 8, Protocol: p, Interval: 25 * ms, Servers: 2,
			Seed: 5, Failures: []Failure{KillRank(40*ms, 3)}}
	}
	cg8 := func(p Protocol, seed int64, kills ...Failure) Options {
		return Options{Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Protocol: p, Interval: 5 * ms, Seed: seed, Failures: kills}
	}
	hb := &HeartbeatSpec{Period: 2 * ms}
	replicated := func(p Protocol, seed int64, kills ...Failure) Options {
		o := cg8(p, seed, kills...)
		o.Storage, o.Heartbeat = replicatedTier(3), hb
		return o
	}
	hbKill := func(rankAt time.Duration) Options {
		o := replicated(Pcl, 7, KillServer(11*ms, 1), KillRank(rankAt, 3))
		o.Attribution = true
		return o
	}
	hier := func(attribution bool, kills ...Failure) Options { // buffer → servers 2×2, deltas, compressed
		o := cg8(Pcl, 7, kills...)
		o.Storage = &StorageSpec{Levels: []LevelSpec{{Kind: LevelBuffer}, {Kind: LevelServers, Servers: 2,
			Replicas: 2, WriteQuorum: 1, StoreRetries: 2, RetryBackoff: ms}}, Incremental: true, Compress: true}
		o.Heartbeat, o.Attribution = hb, attribution
		return o
	}
	shared := func(p Protocol) Options { // three levels, two rank kills inside one interval
		o := cg8(p, 7, KillRank(17*ms, 3), KillRank(19*ms, 5))
		o.Storage = &StorageSpec{Levels: []LevelSpec{{Kind: LevelBuffer}, {Kind: LevelServers, Servers: 2,
			Replicas: 2, WriteQuorum: 1}, {Kind: LevelPFS, Targets: 2, Stripes: 2}}, Incremental: true, Compress: true}
		return o
	}
	return []scenario{
		// The three protocols through a rank kill at NP=64 and NP=16; the
		// Servers shorthand is the same run as its spelled-out level.
		{name: "pcl-64", opts: bt(Pcl, 64, 4, 2*s, 42, KillRank(3*s, 21)), pinned: true},
		{name: "vcl-64", opts: bt(Vcl, 64, 4, 2*s, 42, KillRank(3*s, 21)), pinned: true},
		{name: "mlog-64", opts: bt(Mlog, 64, 4, 2*s, 42, KillRank(3*s, 21)), pinned: true},
		{name: "pcl-64-storage", opts: spelled(Pcl), same: "pcl-64"},
		{name: "vcl-64-storage", opts: spelled(Vcl), same: "vcl-64"},
		{name: "mlog-64-storage", opts: spelled(Mlog), same: "mlog-64"},
		{name: "pcl-16", opts: bt(Pcl, 16, 2, 2*s, 42, KillRank(3*s, 5)), repeat: 1},
		{name: "vcl-16", opts: bt(Vcl, 16, 2, 2*s, 42, KillRank(3*s, 5)), repeat: 1},
		{name: "mlog-16", opts: bt(Mlog, 16, 2, 2*s, 42, KillRank(3*s, 5)), repeat: 1},
		// Multi-cluster: WAN flow caps and per-cluster servers.
		{name: "grid-vcl-16", opts: grid(Vcl, nil), pinned: true, repeat: 1},
		{name: "grid-pcl-16-replicated", opts: grid(Pcl, &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Replicas: 2}}}),
			post: wantReport(gridReplicatedReport)},
		// Spare-rank in-job recovery: a rank kill, a node kill spliced onto
		// a spare, and the non-blocking protocol, each without a restart.
		{name: "ulfm-rank-8", opts: ulfm(Pcl, KillRank(40*ms, 3)), repeat: 1, post: repairedInJob},
		// Its budget was re-recorded when halo rows and partner snapshots
		// began to circulate through recycled buffers (42 193 mallocs and
		// 97 526 896 bytes before).
		{name: "ulfm-node-8", opts: ulfm(Pcl, KillNode(40*ms, 3)), pinned: true, repeat: 1, post: repairedInJob,
			budget: &budget{mallocs: 7_311, bytes: 7_093_416}},
		{name: "ulfm-vcl-8", opts: ulfm(Vcl, KillRank(40*ms, 3)), repeat: 1, post: repairedInJob},
		// Jacobi's halo rows and partner snapshots travel in recycled
		// buffers (mpi.Packet.owned): a buffer recycled while Mlog's sender
		// log or Vcl's channel log still holds it would replay other bytes
		// after the kill and move the checksum off jacobi-8's.
		{name: "jacobi-8", opts: Options{Workload: WorkloadJacobi, NP: 8, Seed: 5}},
		{name: "jacobi-mlog-8", opts: jacobi(Mlog), post: restartedJacobi},
		{name: "jacobi-vcl-8", opts: jacobi(Vcl), post: restartedJacobi},
		// Replication, heartbeats and failover: retry timers, failover
		// fetches and bulk-flow delivery order.  replicated-hb-8's recorded
		// hashes are its pinned report, metrics and trace hashes.  -late
		// moves its rank kill by 1 ms for TestFirstDivergenceNamesTheEvent.
		// The metrics hashes of these rows were re-recorded when the two
		// always-zero buffer-eviction counters left every export; nothing
		// else in them moved.  The three below were re-recorded when flows
		// began to ride per-resource clocks (simnet/clock.go), which
		// reorders completions that tie and moves some by 1 ns; each
		// stream first differs at such an event (CHANGES.md lists them),
		// and only replicated-mlog-8's Report moved: completion
		// 96.475813 → 96.475815 ms.  All three were re-recorded again when
		// images took the flat state codec (mpi.AppendState): each stream
		// first differs at its first image-store-begin, whose Bytes moved.
		{name: "replicated-hb-8", opts: hbKill(17 * ms), pinned: true, repeat: 1},
		{name: "replicated-hb-8-late", opts: hbKill(18 * ms)},
		{name: "replicated-vcl-8", opts: replicated(Vcl, 11, KillRank(13*ms, 2), KillNode(23*ms, 1)), recorded: [3]string{
			"be1b860fbf0bfebf4b36ed7a1d3e71f79dfbe9a16c8fff14b2056df2c5c4538b",
			"3654bffe91fbde2fe34266e80616e93b1080d1616759ae3de64443d3fb0f4304",
			"afda758ded111eacc016834d38f50baf632c395449f0ec9adceb145bff26c3ca"}},
		// Re-recorded when Mlog began deferring a checkpoint tick while the
		// previous image is in flight.  The stream first differs at line 2616:
		//   2615  18711687 log-ship-end 4 3 -1 -1 1 0 72 0 1715 0
		// - 2616  18750000 local-ckpt-begin 6 3 -1 -1 -1 0 0 0 1720 0
		// + 2616  18750000 ckpt-deferred 6 2 -1 -1 -1 0 0 0 0 0
		// Eight ticks defer; completion 108.58 → 96.48 ms, 166 → 139 local
		// checkpoints, same checksum.
		{name: "replicated-mlog-8", opts: replicated(Mlog, 13, KillServer(9*ms, 0)), recorded: [3]string{
			"a692338532b1aeaf59a85467bf4d30d0049a2172c428bfcbfd88cfe5699ec13c",
			"6072245406a90a6bd02c334751fa5ec47ae9ec6d0caa64d9622a5e36b007d5bb",
			"48e260d18cf73925c0d4041099560f9b970f1f370f5a31f4a7db721fb0491c19"}},
		{name: "replicated-node-8", opts: replicated(Pcl, 21, KillNode(15*ms, 2)), recorded: [3]string{
			"226983f51dcd68ac272a495e15456913676f50fbf341f978c24c45a4ea66125c",
			"1528e6b10366fed38701bc017d1bee38aca209270f86da83bb7bb3fc0bdccd45",
			"218491927384dd7f34c75bdd32d9f6d55cfb381f55953e12ce7535b36d3194fb"}},
		// The storage hierarchy: a buffer loss between two waves, then a
		// rank kill whose restore falls through the dead buffer; a chaos
		// schedule biased toward buffer kills; two restores of one shared
		// image.  cg-real-8 is their failure-free checksum.
		{name: "storage-hier-8", opts: hier(true, KillBuffer(9*ms, 1), KillRank(17*ms, 3)),
			pinned: true, repeat: 1, post: recovered},
		{name: "storage-incremental-8", opts: hier(false, KillBuffer(9*ms, 1), KillRank(17*ms, 3)),
			budget: &budget{mallocs: 45_603, bytes: 4_204_296}},
		{name: "storage-chaos-8", opts: hier(false), repeat: 1, post: bufferThenRankKill,
			chaos: &ChaosSpec{Seed: 1, Kills: 3, BufferFrac: 0.5, From: 6 * ms, Until: 16 * ms}},
		{name: "shared-image-pcl-8", opts: shared(Pcl), post: restoredTwice},
		{name: "shared-image-vcl-8", opts: shared(Vcl), post: restoredTwice},
		{name: "cg-real-8", opts: Options{Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Seed: 7}},
		// Eight runs in one process catch map order: the CI Mlog chaos smoke
		// (restarted ranks retransmit to every destination), and counter
		// samples at each snapshot instant.
		{name: "mlog-chaos", opts: Options{Workload: WorkloadCGReal, NP: 8, Protocol: Mlog,
			Interval: 5 * ms, Storage: replicatedTier(2)}, repeat: 7,
			chaos: &ChaosSpec{Seed: 7, Kills: 3, ServerFrac: 0.3, NodeFrac: 0.25, From: 8 * ms, Until: 40 * ms}},
		{name: "snapshots", opts: Options{Workload: WorkloadCGReal, NP: 4, Protocol: Pcl,
			Interval: 5 * ms, Servers: 1, Seed: 7, MetricsSnapshot: 2 * ms}, repeat: 7},
		// Kernel budgets.  The NP=256 counts were re-recorded when flows
		// began to ride per-resource virtual clocks (simnet/clock.go): a
		// flow change re-arms the earliest finisher of each clock it
		// changed instead of every flow sharing a resource with it, so
		// scheduled and cancelled fell (Mlog 20.6 M / 17.3 M before), and
		// fired moved by a few events where a 1 ns shift reordered ties.
		// The two Mlog rows' counts were re-recorded when images took the
		// flat state codec, which sizes an Mlog image's packets at 8 bytes
		// a field: each stream first differs at an image-store-begin.
		// The three Mlog rows' mallocs and bytes were re-recorded (largest
		// of four) when a log store op went back to its group's free list
		// once its tracker dropped it: 420 939 / 172.3 MB, 97 517 /
		// 42.4 MB and 236 833 / 48.8 MB before.  Every malloc budget was
		// lowered again (largest of four) when a consumed or dropped
		// message handed its body slot back to the Fabric and Mlog's
		// device state stopped encoding through maps: the Mlog rows
		// from 108 507 / 66.7 MB, 19 401 / 16.0 MB and 158 794 /
		// 22.4 MB.  The fourth count is the LP resumes: 993 147, 1 004 181,
		// 1 020 923 and 253 078 while an exchange parked for its send
		// charge, for its match and for its receive charge (one park per
		// MPI call since, DESIGN.md §5.2).
		{name: "pcl-256", opts: kernel(Pcl, 256, 2*s),
			budget: &budget{heapPerRank: 4, counts: [4]uint64{1_741_930, 1_529_800, 75_960, 471_512}}},
		{name: "vcl-256", opts: kernel(Vcl, 256, 2*s),
			budget: &budget{heapPerRank: 4, counts: [4]uint64{2_172_078, 1_974_706, 60_688, 471_512}}},
		{name: "mlog-256", opts: kernel(Mlog, 256, 2*s),
			budget: &budget{mallocs: 61_630, bytes: 53_171_480, heapPerRank: 4, counts: [4]uint64{3_645_123, 2_962_662, 365_316, 471_512}}},
		{name: "pcl-64-nofail", opts: kernel(Pcl, 64, 8*s), budget: &budget{mallocs: 9_102}},
		{name: "vcl-64-nofail", opts: kernel(Vcl, 64, 8*s), budget: &budget{mallocs: 8_094}},
		{name: "mlog-64-nofail", opts: kernel(Mlog, 64, 8*s), budget: &budget{mallocs: 13_391, bytes: 12_890_512}},
		// Overload: 64 images of 3.9 MB every 400 ms offer four servers
		// 625 MB/s.  Before Mlog deferred a tick while its last image was
		// in flight, this run never returned.  Its counts were re-recorded
		// with the NP=256 rows' (3 163 884 / 749 387 / 2 335 144 before).
		{name: "mlog-64-overload", opts: kernel(Mlog, 64, 400*ms),
			budget: &budget{mallocs: 52_140, bytes: 15_371_144, heapPerRank: 4, counts: [4]uint64{932_159, 749_388, 103_467, 117_848}}},
	}
}()

// result is one run's artifacts, Report pointers stripped; reg is the
// run's registry.  The Chrome trace, the largest artifact, is kept as its
// sha256: a trace that differs while the event stream agrees is the
// exporter's fault.
type result struct {
	rep                     Report
	reg                     *Metrics
	metrics, events, attrib []byte
	traceSHA                string
	chaos                   *ChaosReport // chaos rows, Report.Metrics stripped
}

// byName indexes the table; firstRuns makes each row's first run once.
var (
	byName    = map[string]*scenario{}
	firstRuns = map[string]func() (*result, error){}
)

func init() {
	for i := range scenarios {
		sc := &scenarios[i]
		byName[sc.name] = sc
		firstRuns[sc.name] = sync.OnceValues(func() (*result, error) { return runScenario(sc) })
	}
}

// first returns the row's first run, making it if no test has yet.
func first(t *testing.T, name string) *result {
	t.Helper()
	run := firstRuns[name]
	if run == nil {
		t.Fatalf("no scenario %q", name)
	}
	r, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func runScenario(sc *scenario) (*result, error) {
	o := sc.opts
	if sc.chaos != nil {
		var events bytes.Buffer
		o.Sink = NewLineSink(&events)
		out, err := Chaos(o, *sc.chaos)
		out.Report.Metrics = nil
		return &result{rep: out.Report, chaos: &out, events: events.Bytes()}, err
	}
	finish := attach(&o)
	rep, err := Run(o)
	if err != nil {
		return nil, err
	}
	return finish(rep)
}

// attach gives o a Collector, a Chrome exporter and an event line stream,
// and returns what makes the run's result once it has returned rep.  The
// Collector's events must fold to the Report (foldMismatch).
func attach(o *Options) func(rep Report) (*result, error) {
	col, trace := NewCollector(), sha256.New()
	chrome := NewChromeStreamSink(trace)
	var events bytes.Buffer
	o.Sink = obs.NewHub(col, chrome, NewLineSink(&events))
	return func(rep Report) (*result, error) {
		var met, attrib bytes.Buffer
		err := errors.Join(chrome.Close(), foldMismatch(rep, col.Events()), rep.Metrics.WriteJSON(&met))
		if rep.Attribution != nil {
			err = errors.Join(err, rep.Attribution.WriteJSON(&attrib))
		}
		r := &result{rep: rep, reg: rep.Metrics, metrics: met.Bytes(), events: events.Bytes(),
			attrib: attrib.Bytes(), traceSHA: hex.EncodeToString(trace.Sum(nil))}
		r.rep.Metrics, r.rep.Attribution = nil, nil
		return r, err
	}
}

// differences names each artifact in which b differs from a.
func differences(a, b *result) []string {
	var ds []string
	if a.rep != b.rep {
		ds = append(ds, fmt.Sprintf("Report differs:\n  %+v\n  %+v", a.rep, b.rep))
	}
	if !reflect.DeepEqual(a.chaos, b.chaos) {
		ds = append(ds, fmt.Sprintf("ChaosReport differs:\n  %+v\n  %+v", a.chaos, b.chaos))
	}
	if a.traceSHA != b.traceSHA {
		ds = append(ds, fmt.Sprintf("Chrome trace differs: sha256 %s, %s", a.traceSHA, b.traceSHA))
	}
	for _, art := range [...]struct {
		name string
		a, b []byte
	}{{"metrics JSON", a.metrics, b.metrics}, {"event stream", a.events, b.events}, {"attribution", a.attrib, b.attrib}} {
		if d := firstDivergence(art.a, art.b); d != "" {
			ds = append(ds, art.name+" differs, "+d)
		}
	}
	return ds
}

// TestScenarioTable: every row is named once, no two rows are the same
// Options, and the pinned rows are exactly the keys of the pinned file.
func TestScenarioTable(t *testing.T) {
	t.Parallel()
	file, opts := readPinned(t), map[string]string{}
	for i, sc := range scenarios {
		j, _ := json.Marshal(sc.opts)
		if other, ok := opts[string(j)]; ok {
			t.Errorf("%s and %s are the same Options", other, sc.name)
		}
		if byName[sc.name] != &scenarios[i] {
			t.Errorf("two rows are named %s", sc.name)
		}
		if _, ok := file[sc.name]; ok != sc.pinned {
			t.Errorf("%s: pinned %v, in %s %v", sc.name, sc.pinned, pinnedPath, ok)
		}
		opts[string(j)] = sc.name
		delete(file, sc.name)
	}
	for name := range file {
		t.Errorf("%s pins %s, which is not a row", pinnedPath, name)
	}
}
