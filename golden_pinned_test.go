package ftckpt

// Pinned cross-commit goldens.  The other golden suites compare a run with
// its own repeat, which proves determinism but not that a refactor left the
// output alone.  TestGoldenPinned hashes the Report, the metrics export,
// the Chrome trace and (where the scenario turns it on) the attribution
// document of seven scenarios and compares them with
// testdata/golden_pinned.json, recorded at the commit before the last
// change that claimed byte-identical output.  A PR that means to change
// simulation output re-records the file with
//
//	go test -run TestGoldenPinned -update .
//
// and says so in CHANGES.md.  The hashes cover float formatting, so they
// are pinned for amd64 (the CI and benchmark platform).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/golden_pinned.json from this run")

const pinnedPath = "testdata/golden_pinned.json"

// pinnedHashes is one scenario's entry in the pinned file.
type pinnedHashes struct {
	Report  string `json:"report"`
	Metrics string `json:"metrics"`
	Trace   string `json:"trace"`
	// Stream is the ChromeStreamSink document of the same run.
	Stream string `json:"stream,omitempty"`
	// Attribution is set only for scenarios that run with Options.Attribution.
	Attribution string `json:"attribution,omitempty"`
}

// pinnedNP64 is the option set of the pcl-64, vcl-64 and mlog-64
// scenarios.
func pinnedNP64(p Protocol) Options {
	return Options{
		Workload:     WorkloadBT,
		Class:        ClassA,
		NP:           64,
		ProcsPerNode: 2,
		Protocol:     p,
		Interval:     2 * time.Second,
		Servers:      4,
		Seed:         42,
		Failures:     []Failure{KillRank(3*time.Second, 21)},
	}
}

// pinnedGrid is the option set of the grid-vcl-16 scenario.
func pinnedGrid() Options {
	return Options{
		Workload:     WorkloadBT,
		Class:        ClassA,
		NP:           16,
		ProcsPerNode: 2,
		Protocol:     Vcl,
		Interval:     2 * time.Second,
		Platform:     PlatformGrid,
		Seed:         9,
	}
}

func pinnedScenarios() []struct {
	name string
	opts Options
} {
	ulfm := ulfmGolden()
	ulfm.Failures = []Failure{KillNode(40*time.Millisecond, 3)}
	storage := storageGolden()
	storage.Attribution = true
	return []struct {
		name string
		opts Options
	}{
		{"pcl-64", pinnedNP64(Pcl)},
		{"vcl-64", pinnedNP64(Vcl)},
		{"mlog-64", pinnedNP64(Mlog)},
		{"grid-vcl-16", pinnedGrid()},
		{"ulfm-node-8", ulfm},
		// Replication, heartbeats and failover: a server kill then a rank
		// kill, so retry timers and bulk-flow delivery order are pinned.
		{"replicated-hb-8", Options{
			Workload:     WorkloadCGReal,
			NP:           8,
			ProcsPerNode: 2,
			Protocol:     Pcl,
			Interval:     5 * time.Millisecond,
			Storage:      replicatedTier(3),
			Heartbeat:    &HeartbeatSpec{Period: 2 * time.Millisecond},
			Seed:         7,
			Attribution:  true,
			Failures: []Failure{
				KillServer(11*time.Millisecond, 1),
				KillRank(17*time.Millisecond, 3),
			},
		}},
		// Buffer → servers 2×2, incremental + compressed, a buffer kill then
		// a rank kill: the staged drains run concurrently with compute.
		{"storage-hier-8", storage},
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// streamedTrace runs o with a ChromeStreamSink attached through
// Options.Sink and returns the document as it stands after Close.
func streamedTrace(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewChromeStreamSink(&buf)
	o.Sink = sink
	if _, err := Run(o); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestGoldenPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	scenarios := pinnedScenarios()
	got := make(map[string]pinnedHashes)
	for _, sc := range scenarios {
		rep, met, trace := goldenArtifacts(t, sc.opts)
		h := pinnedHashes{Metrics: sha(met), Trace: sha(trace), Stream: sha(streamedTrace(t, sc.opts))}
		if rep.Attribution != nil {
			h.Attribution = sha(attribJSON(t, rep.Attribution))
			rep.Attribution = nil // a pointer: its address must not reach the hash
		}
		h.Report = sha([]byte(fmt.Sprintf("%+v", rep)))
		got[sc.name] = h
	}
	if *updatePinned {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want map[string]pinnedHashes
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", pinnedPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d scenarios, the test runs %d", pinnedPath, len(want), len(got))
	}
	for _, sc := range scenarios {
		if got[sc.name] != want[sc.name] {
			t.Errorf("%s: output differs from the pinned commit:\n  got  %+v\n  want %+v",
				sc.name, got[sc.name], want[sc.name])
		}
	}
}
