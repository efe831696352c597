package obs

import (
	"fmt"
	"strconv"
)

// How each event kind renders on a Chrome timeline, said once.
// ChromeStreamSink reads renderTable and pairs each begin row with its end
// row into one complete span.  The table is an array over EventType, so a
// new kind has a row by construction; TestEventTypeNames rejects a row
// left at its zero shape, which makes "not rendered" a decision somebody
// wrote down.

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
// aborted): its span key is its begin row's, evaluated on the end event's
// own fields, so the two cannot drift apart; name, track and args are the
// begin event's.
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
	EvLocalCkptBegin:   {shape: begin, track: onRank, name: t("snapshot (wave %d)", fWave), key: t("snap:%d", fRank), args: []arg{{"wave", fWave}}},
	EvLocalCkptEnd:     {shape: end, of: EvLocalCkptBegin},
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
	EvServerKilled:     {shape: instant, track: onServer, name: t("server %d killed", fServer), args: []arg{{"node", fNode}}},
	EvHeartbeatTimeout: {shape: instant, track: onRuntime, name: t("heartbeat timeout"), args: []arg{{"rank", fRank}, {"server", fServer}}},
	EvReplicaFailover:  {shape: instant, track: onRuntime, name: t("failover r%d w%d", fRank, fWave), args: []arg{{"server", fServer}, {"level", fLevel}}},
	EvStoreRetry:       {shape: instant, track: onServer, name: t("store retry r%d w%d", fRank, fWave)},
	EvQuorumLost:       {shape: instant, track: onRuntime, name: t("quorum lost r%d w%d", fRank, fWave)},
	EvMessageReplayed:  {shape: instant, track: onRank, name: t("message-replayed"), args: []arg{{"from", fChannel}, {"bytes", fBytes}, {"wave", fWave}}},
	EvDegraded:         {shape: instant, track: onRuntime, name: t("degraded stop"), args: []arg{{"rank", fRank}, {"wave", fWave}}},
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
	// Coincides with the image-store-end (or buffer store) that reached the
	// quorum, which the timeline already shows.
	EvImageDurable: {shape: notRendered},
	EvCkptDeferred: {shape: instant, track: onRank, name: t("checkpoint deferred (wave %d in flight)", fWave)},
}

// abortedSuffix marks an interval that did not complete: a repair that
// fell back to a restart, an attempt a second begin on its key replaced,
// or a transfer still open at the trace horizon.
const abortedSuffix = " (aborted)"

// mark is one event as the timeline shows it.  rec carries name, time,
// track and args, and is complete for an instant or a counter sample; an
// end's rec carries only its time.  key names the interval a begin opens
// and an end closes.
type mark struct {
	shape   shape
	rec     chromeEvent
	key     spanKey
	aborted bool
}

// spanKey identifies an open interval: the event's span id when the
// emitter stamped one (unique per attempt), else the row's key text.
type spanKey struct {
	span uint64
	text string
}

// render looks ev up in renderTable.
func render(ev Event) mark {
	if ev.Type >= numEventTypes {
		return mark{}
	}
	r := &renderTable[ev.Type]
	m := mark{shape: r.shape, aborted: r.aborted}
	switch r.shape {
	case shapeUnset, notRendered:
		return m
	case end:
		r = &renderTable[r.of]
		fallthrough
	case begin:
		m.key.span = ev.Span
		if ev.Span == 0 {
			m.key.text = r.key.of(ev)
		}
	}
	m.rec.ts = usec(ev.T)
	if m.shape == end {
		return m
	}
	m.rec.name = r.name.of(ev)
	switch r.track {
	case onEmitter:
		m.rec.pid, m.rec.tid = trackOf(ev.Rank)
	case onRank:
		m.rec.pid, m.rec.tid = pidRanks, ev.Rank
	case onServer:
		m.rec.pid, m.rec.tid = pidServers, ev.Server
	case onStore:
		m.rec.pid, m.rec.tid = pidServers, ev.Server
		if ev.Server < 0 {
			m.rec.pid, m.rec.tid = pidRanks, ev.Rank
			m.rec.name = fmt.Sprintf("buffer store w%d", ev.Wave)
		}
	}
	if len(r.args) > 0 {
		b := []byte{'{'}
		for i, a := range r.args {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), a.key...), '"', ':')
			b = strconv.AppendInt(b, a.f.of(ev), 10)
		}
		m.rec.args = append(b, '}')
	}
	switch m.shape {
	case instant:
		m.rec.ph = "i"
	case counter:
		m.rec.ph, m.rec.name = "C", ev.Detail
	}
	return m
}
