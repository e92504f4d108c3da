package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestGoldenPresets(t *testing.T) {
	for _, preset := range []string{"tiger", "zebra", "fast"} {
		t.Run(preset, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-preset", preset}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			path := filepath.Join("testdata", preset+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, stdout.Bytes(), want)
			}
		})
	}
}

// TestEverySetChainExits1 covers a stripe over all 32 sets: no set is
// left for the loop tail, so building the routine fails.
func TestEverySetChainExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sets", "32"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a map for an unbuildable chain:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "all 32 sets") {
		t.Errorf("stderr %q does not name the full chain", stderr.String())
	}
}

func TestUnknownPresetExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "lion"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
