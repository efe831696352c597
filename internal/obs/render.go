package obs

import "fmt"

// How each event kind renders on a Chrome timeline, said once.  Both
// exporters read renderTable: WriteChromeTrace pairs begin/end rows into
// complete spans over a retained slice, ChromeStreamSink writes them as
// they arrive.  The table is an array over EventType, so a new kind has a
// row by construction; TestEventTypeNames rejects a row left at its zero
// shape, which makes "not rendered" a decision somebody wrote down.

// shape is what an event kind becomes on the timeline.
type shape uint8

const (
	shapeUnset  shape = iota // no row yet — a test failure, never a choice
	notRendered              // deliberately absent from the timeline
	instant
	begin   // opens the interval the matching end row closes
	end     // closes the interval of the begin kind named by of
	counter // one sample of a counter track
)

// track is the timeline row an event lands on.
type track uint8

const (
	onRuntime track = iota // the runtime's one track
	onRank                 // the rank's track
	onEmitter              // trackOf(Rank): the rank's track, the runtime's for Rank < 0
	onServer               // the checkpoint server's track
	onStore                // the server's track; a node-local buffer store (Server < 0) renders on the rank
)

// field selects the integer Event field a name, span key or args entry
// shows.
type field uint8

const (
	fRank field = iota
	fWave
	fChannel
	fNode
	fServer
	fLevel
	fBytes
)

func (f field) of(ev Event) int64 {
	return [...]int64{int64(ev.Rank), int64(ev.Wave), int64(ev.Channel), int64(ev.Node), int64(ev.Server), int64(ev.Level), ev.Bytes}[f]
}

// text is a fmt format over event fields.
type text struct {
	format string
	fields []field
}

func t(format string, fields ...field) text { return text{format, fields} }

func (x text) of(ev Event) string {
	var buf [3]any // no row names more fields; keeps the values off the heap
	vals := buf[:0]
	for _, f := range x.fields {
		vals = append(vals, f.of(ev))
	}
	return fmt.Sprintf(x.format, vals...)
}

type arg struct {
	key string
	f   field
}

// rendering is one row of renderTable.  An end row carries only of (and
// aborted): name, track and span key are its begin row's, evaluated on the
// end event's own fields, so the two cannot drift apart.
type rendering struct {
	shape   shape
	track   track
	name    text
	key     text      // begin: identifies the open interval
	args    []arg     // instant, begin, counter
	of      EventType // end: the begin kind it closes
	aborted bool      // end: the interval did not complete
}

var renderTable = [numEventTypes]rendering{
	EvMarkerSent:       {shape: instant, track: onEmitter, name: t("marker-sent"), args: []arg{{"wave", fWave}, {"to", fChannel}}},
	EvMarkerRecv:       {shape: instant, track: onEmitter, name: t("marker-recv"), args: []arg{{"wave", fWave}, {"from", fChannel}}},
	EvChannelBlocked:   {shape: begin, track: onRank, name: t("blocked send (wave %d)", fWave), key: t("blk:%d", fRank), args: []arg{{"wave", fWave}}},
	EvChannelUnblocked: {shape: end, of: EvChannelBlocked},
	EvSendDelayed:      {shape: instant, track: onRank, name: t("send-delayed"), args: []arg{{"to", fChannel}}},
	EvRecvDelayed:      {shape: instant, track: onRank, name: t("recv-delayed"), args: []arg{{"from", fChannel}}},
	EvMessageLogged:    {shape: instant, track: onRank, name: t("message-logged"), args: []arg{{"from", fChannel}, {"bytes", fBytes}, {"wave", fWave}}},
	EvLocalCkptBegin:   {shape: notRendered},
	EvLocalCkptEnd:     {shape: instant, track: onRank, name: t("snapshot (wave %d)", fWave)},
	EvImageStoreBegin:  {shape: begin, track: onStore, name: t("store r%d w%d", fRank, fWave), key: t("img:%d:%d:%d", fRank, fWave, fServer), args: []arg{{"bytes", fBytes}}},
	EvImageStoreEnd:    {shape: end, of: EvImageStoreBegin},
	EvLogShipBegin:     {shape: begin, track: onServer, name: t("logs r%d w%d", fRank, fWave), key: t("log:%d:%d:%d", fRank, fWave, fServer), args: []arg{{"bytes", fBytes}}},
	EvLogShipEnd:       {shape: end, of: EvLogShipBegin},
	EvWaveCommit:       {shape: instant, track: onEmitter, name: t("wave %d committed", fWave)},
	EvRankKilled:       {shape: instant, track: onRuntime, name: t("rank %d killed", fRank), args: []arg{{"restart_wave", fWave}}},
	EvNodeLost:         {shape: instant, track: onRuntime, name: t("node %d lost", fNode)},
	EvRestartBegin:     {shape: begin, track: onEmitter, name: t("restart (wave %d)", fWave), key: t("rst:%d", fRank), args: []arg{{"wave", fWave}}},
	EvRestartEnd:       {shape: end, of: EvRestartBegin},
	EvJobComplete:      {shape: instant, track: onRuntime, name: t("job complete")},
	// The timeline's blind spot: a checkpoint-server kill, its detection,
	// the failover and retries it causes, a lost quorum, replayed messages
	// and the degraded stop are all invisible, although buffer and PFS
	// kills show.  Rendering them changes every pinned trace hash, so it
	// belongs to a PR that re-records testdata/golden_pinned.json.
	EvServerKilled:     {shape: notRendered},
	EvHeartbeatTimeout: {shape: notRendered},
	EvReplicaFailover:  {shape: notRendered},
	EvStoreRetry:       {shape: notRendered},
	EvQuorumLost:       {shape: notRendered},
	EvMessageReplayed:  {shape: notRendered},
	EvDegraded:         {shape: notRendered},
	EvComponentDead:    {shape: instant, track: onEmitter, name: t("rank %d dead (silent)", fRank)},
	EvRankDone:         {shape: instant, track: onEmitter, name: t("rank %d done", fRank)},
	EvCounterSample:    {shape: counter, track: onRuntime, args: []arg{{"value", fBytes}}}, // named by Detail
	EvProcFailed:       {shape: instant, track: onRuntime, name: t("rank %d failed", fRank), args: []arg{{"wave", fWave}}},
	EvRevoked:          {shape: instant, track: onRuntime, name: t("revoked"), args: []arg{{"victim", fChannel}}},
	EvRepairBegin:      {shape: begin, track: onRuntime, name: t("repair (rank %d)", fChannel), key: t("rep"), args: []arg{{"victim", fChannel}, {"wave", fWave}}},
	EvRepairEnd:        {shape: end, of: EvRepairBegin},
	EvRepairAbort:      {shape: end, of: EvRepairBegin, aborted: true},
	EvAppCkpt:          {shape: instant, track: onRank, name: t("app snapshot (iter %d)", fWave), args: []arg{{"partner", fChannel}, {"bytes", fBytes}}},
	EvAppRestore:       {shape: instant, track: onRank, name: t("app restore (iter %d)", fWave)},
	EvDrainBegin:       {shape: begin, track: onRuntime, name: t("drain r%d w%d → L%d", fRank, fWave, fLevel), key: t("drn:%d:%d:%d", fRank, fWave, fLevel), args: []arg{{"bytes", fBytes}, {"level", fLevel}}},
	EvDrainEnd:         {shape: end, of: EvDrainBegin},
	EvBufferKilled:     {shape: instant, track: onRuntime, name: t("buffer on node %d lost", fNode)},
	EvPFSKilled:        {shape: instant, track: onRuntime, name: t("pfs target %d lost", fServer)},
	EvLevelEvict:       {shape: instant, track: onRuntime, name: t("evict r%d w%d (L%d)", fRank, fWave, fLevel), args: []arg{{"bytes", fBytes}}},
	// Coincides with the image-store-end (or buffer store) that reached the
	// quorum, which the timeline already shows.
	EvImageDurable: {shape: notRendered},
}

// abortedSuffix marks an interval that did not complete: a repair that
// fell back to a restart, or a transfer still open at the trace horizon.
const abortedSuffix = " (aborted)"

// mark is one event as the timeline shows it.  rec carries name, time,
// track and args, and is complete for an instant or a counter sample; an
// exporter frames a begin or end its own way, pairing on key.
type mark struct {
	shape   shape
	rec     chromeEvent
	key     string
	aborted bool
}

// render looks ev up in renderTable.
func render(ev Event) mark {
	if ev.Type >= numEventTypes {
		return mark{}
	}
	r := &renderTable[ev.Type]
	m := mark{shape: r.shape, aborted: r.aborted}
	if r.shape <= notRendered {
		return m
	}
	args := r.args
	if r.shape == end {
		r, args = &renderTable[r.of], nil
	}
	m.rec = chromeEvent{Name: r.name.of(ev), Ts: usec(int64(ev.T)), Pid: pidRuntime}
	switch r.track {
	case onEmitter:
		m.rec.Pid, m.rec.Tid = trackOf(ev.Rank)
	case onRank:
		m.rec.Pid, m.rec.Tid = pidRanks, ev.Rank
	case onServer:
		m.rec.Pid, m.rec.Tid = pidServers, ev.Server
	case onStore:
		m.rec.Pid, m.rec.Tid = pidServers, ev.Server
		if ev.Server < 0 {
			m.rec.Pid, m.rec.Tid = pidRanks, ev.Rank
			m.rec.Name = fmt.Sprintf("buffer store w%d", ev.Wave)
		}
	}
	if m.aborted {
		m.rec.Name += abortedSuffix
	}
	if len(args) > 0 {
		m.rec.Args = make(map[string]any, len(args))
		for _, a := range args {
			m.rec.Args[a.key] = a.f.of(ev)
		}
	}
	switch m.shape {
	case instant:
		m.rec.Ph, m.rec.S = "i", "t"
	case counter:
		m.rec.Ph, m.rec.Name = "C", ev.Detail
	case begin, end:
		m.key = r.key.of(ev)
	}
	return m
}
