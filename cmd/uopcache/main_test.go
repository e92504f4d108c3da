package main

import (
	"bytes"
	"strings"
	"testing"

	"deaduops/internal/experiments"
)

// small keeps every experiment in the cheap list under a few tens of
// milliseconds.
var small = experiments.Options{Iterations: 4, Warmup: 1, Samples: 1, Workers: 1}

var smallArgs = []string{"-iters", "4", "-warmup", "1", "-samples", "1", "-workers", "1"}

// TestExpListMatchesRegistry holds the CLI to its oracle, the registry
// itself: a comma list prints each experiment's rendering in order.
func TestExpListMatchesRegistry(t *testing.T) {
	ids := []string{"fig3b", "table2", "fig8", "fig10"}
	var want bytes.Buffer
	for _, id := range ids {
		out, err := experiments.Registry[id](small)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want.WriteString(out.Render() + "\n")
	}
	var stdout, stderr bytes.Buffer
	args := append([]string{"-exp", strings.Join(ids, ",")}, smallArgs...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got := stdout.String(); got != want.String() {
		t.Errorf("stdout differs from the registry's renderings:\n--- got ---\n%s\n--- want ---\n%s", got, want.String())
	}
}

func TestCSVMatchesRegistry(t *testing.T) {
	out, err := experiments.Registry["fig3b"](small)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-exp", "fig3b", "-csv"}, smallArgs...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if want := out.(*experiments.Figure).CSV(); stdout.String() != want {
		t.Errorf("csv differs:\n--- got ---\n%s\n--- want ---\n%s", stdout.String(), want)
	}
}

func TestListPrintsIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; stdout.String() != want {
		t.Errorf("-list = %q, want %q", stdout.String(), want)
	}
}

// TestBadExpListExitsBeforeRunning checks every id before the first
// experiment runs: a bad element anywhere in the list exits 2 with
// nothing on stdout.
func TestBadExpListExitsBeforeRunning(t *testing.T) {
	for _, exp := range []string{"", "nope", "fig3b,nope", "fig3b,", ",fig3b", "fig3b,,fig8", "all,fig3b"} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-exp", exp}, smallArgs...), &stdout, &stderr); code != 2 {
			t.Errorf("-exp %q: exit %d, want 2", exp, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %q printed before failing:\n%s", exp, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("-exp %q: no error message", exp)
		}
	}
}
