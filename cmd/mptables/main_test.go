package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestBuildArtifactsKernelsOnly regenerates the kernels-only artifacts
// (Tables I-III) and byte-compares each with its committed copy under
// artifacts/, so a change to any of them cannot pass unnoticed.
// MIXP_UPDATE_GOLDEN=1 rewrites the committed copies instead, exactly as
// `mptables -kernels-only -out artifacts` does.
func TestBuildArtifactsKernelsOnly(t *testing.T) {
	study := report.Run(report.Options{Workers: 2, KernelsOnly: true})
	arts := buildArtifacts(study, true)
	if len(arts) != 3 {
		t.Fatalf("kernels-only artifacts = %d, want 3", len(arts))
	}
	names := map[string]string{}
	for _, a := range arts {
		if a.content == "" {
			t.Errorf("%s is empty", a.name)
		}
		names[a.name] = a.content
	}
	if !strings.Contains(names["table3.txt"], "banded-lin-eq") {
		t.Error("table3 incomplete")
	}
	if !strings.Contains(names["table2.txt"], "2^TC") {
		t.Error("table2 missing search-space columns")
	}

	update := os.Getenv("MIXP_UPDATE_GOLDEN") != ""
	for _, a := range arts {
		path := filepath.Join("..", "..", "artifacts", a.name)
		if update {
			if err := os.WriteFile(path, []byte(a.content), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s (regenerate with MIXP_UPDATE_GOLDEN=1 go test ./cmd/mptables -run TestBuildArtifactsKernelsOnly): %v", path, err)
		}
		if string(want) != a.content {
			t.Errorf("%s differs from the committed artifacts/%s (regenerate with MIXP_UPDATE_GOLDEN=1 go test ./cmd/mptables -run TestBuildArtifactsKernelsOnly):\n--- committed ---\n%s\n--- generated ---\n%s",
				a.name, a.name, want, a.content)
		}
	}
}
