package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestGoldenPresets(t *testing.T) {
	for _, preset := range []string{"warmup", "spectre"} {
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

func TestUnknownPresetExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
