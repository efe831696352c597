package expt

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
)

// fig6Capture runs the quick Fig. 6 sweep at the given job count,
// returning rows, the trace transcript and the exported metrics bytes.
func fig6Capture(t *testing.T, jobs int) ([]Fig6Row, []string, string) {
	t.Helper()
	o := quick()
	o.Jobs = jobs
	o.Metrics = obs.NewMetrics()
	var lines []string
	o.Trace = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	rows, err := Fig6(o)
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	var b strings.Builder
	if err := o.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return rows, lines, b.String()
}

// TestFig6ParallelMatchesSequential is the acceptance check for the
// parallel sweep executor: a Jobs=8 run must reproduce a Jobs=1 run
// byte for byte — same rows, same trace transcript, same exported
// metrics.
func TestFig6ParallelMatchesSequential(t *testing.T) {
	seqRows, seqTrace, seqMetrics := fig6Capture(t, 1)
	parRows, parTrace, parMetrics := fig6Capture(t, 8)
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("rows differ:\nseq: %+v\npar: %+v", seqRows, parRows)
	}
	if !reflect.DeepEqual(seqTrace, parTrace) {
		t.Errorf("trace transcripts differ:\nseq: %q\npar: %q", seqTrace, parTrace)
	}
	if seqMetrics != parMetrics {
		t.Errorf("exported metrics differ:\nseq: %s\npar: %s", seqMetrics, parMetrics)
	}
}

// TestDeadlineErrorNamesPoint forces every run over its virtual-time
// budget (maxTime test hook) and checks the failure is a descriptive
// error naming the offending sweep point — not a hang, not a bare
// deadline message.
func TestDeadlineErrorNamesPoint(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		o := quick()
		o.Jobs = jobs
		o.maxTime = 1 // one virtual nanosecond: nothing finishes
		_, err := Fig6(o)
		if err == nil {
			t.Fatalf("jobs=%d: sweep succeeded under a 1ns deadline", jobs)
		}
		for _, want := range []string{"fig6", "np=", "interval=", "proto=", "deadline"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("jobs=%d: error %q does not mention %q", jobs, err, want)
			}
		}
	}
}

// TestRunErrorKeepsType checks the sweep-point prefix wraps rather than
// flattens: callers of a harness can still tell a rejected configuration
// from a job that stopped degraded with errors.As.
func TestRunErrorKeepsType(t *testing.T) {
	o := quick()
	const label = "errchain np=4"
	cfg := ftpm.Config{
		NP:         4,
		Protocol:   ftpm.ProtoPcl,
		Profile:    platform.PclSock,
		Interval:   time.Second,
		Servers:    1,
		Topology:   platform.EthernetCluster(4 + 1 + 1),
		NewProgram: newBT(o.btClass()),
		Seed:       o.Seed,
	}

	bad := cfg
	bad.NP = 0
	_, err := o.runPoints([]point{{label, []ftpm.Config{bad}}})
	var ce *ftpm.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("NP=0: run returned %v (%T), want a *ftpm.ConfigError in the chain", err, err)
	} else if ce.Field != "NP" {
		t.Errorf("ConfigError.Field = %q, want NP", ce.Field)
	}

	// The only server dies after wave 1 commits (~6.1 s), taking the only
	// copy of every image; the rank kill then finds nothing to restart from.
	cfg.Failures = failure.Plan{
		{At: 8 * time.Second, Kind: failure.KindServer, Server: 0},
		{At: 10 * time.Second, Rank: 2},
	}
	_, err = o.runPoints([]point{{label, []ftpm.Config{cfg}}})
	var deg *ftpm.DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("lost server: run returned %v (%T), want a *ftpm.DegradedError in the chain", err, err)
	}
	if deg.Wave < 1 {
		t.Errorf("degraded at wave %d, want a committed wave", deg.Wave)
	}
	if !strings.HasPrefix(err.Error(), label) {
		t.Errorf("error %q lost the sweep-point prefix %q", err, label)
	}
}
