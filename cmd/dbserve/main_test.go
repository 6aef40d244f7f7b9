package main

import (
	"net"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

func TestSelfcheckClosedLoop(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-selfcheck", "-k", "8", "-clients", "2", "-requests", "40", "-hotset", "16"}, &out)
	if err != nil {
		t.Fatalf("selfcheck: %v\n%s", err, out.String())
	}
	for _, want := range []string{"sent      80", "latency", "rate"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSelfcheckOpenLoop(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-selfcheck", "-k", "8", "-rate", "500", "-duration", "100ms"}, &out)
	if err != nil {
		t.Fatalf("selfcheck: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sent") {
		t.Fatalf("output missing counters:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, &strings.Builder{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestSelfcheckTracedCrossCheck(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-selfcheck", "-k", "8", "-clients", "2", "-requests", "64",
		"-trace-sample", "8", "-flight-size", "64"}, &out)
	if err != nil {
		t.Fatalf("traced selfcheck: %v\n%s", err, out.String())
	}
	for _, want := range []string{"final /metrics matches in-process counts", "sampled (1 in 8)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestProbeAgainstServer boots the real server path on an ephemeral
// port and drives it with the -probe smoke client — the same loop the
// CI workflow runs as a subprocess.
func TestProbeAgainstServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{TraceSample: 1, FlightSize: 64, Registry: obs.NewRegistry()})
	defer srv.Close()
	go srv.Serve(ln)

	var out strings.Builder
	if err := run([]string{"-probe", "-addr", ln.Addr().String()}, &out); err != nil {
		t.Fatalf("probe: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "probe complete: 4/4 ok") {
		t.Fatalf("probe output:\n%s", out.String())
	}
	// A connection writer publishes a sampled trace only after its
	// frame is written, so the probe can read its last answer before
	// the last trace lands. Close waits for every writer to finish.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Traces().Total(); got != 4 {
		t.Fatalf("server sampled %d probe traces, want 4", got)
	}
}
