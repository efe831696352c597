package core

import (
	"testing"

	"ftckpt/internal/mpi"
)

func TestMarkerAndDoneConstructors(t *testing.T) {
	m := Marker(7)
	if m.Kind != mpi.KindMarker || m.Wave != 7 {
		t.Fatalf("marker %+v", m)
	}
	d := Done(3)
	if d.Kind != mpi.KindControl || d.Tag != OpCkptDone || d.Wave != 3 {
		t.Fatalf("done %+v", d)
	}
}

func TestNoneProtocolPassesEverything(t *testing.T) {
	var n None
	if !n.OutPayload(&mpi.Packet{}) || !n.InPacket(&mpi.Packet{}) {
		t.Fatal("None filtered a packet")
	}
	if n.DeviceState() != nil {
		t.Fatal("None carries state")
	}
	n.Start()
	n.Stop()
	n.Restore(nil, nil, 0)
}
