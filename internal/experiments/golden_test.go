package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick-scale golden file")

// quickGolden renders the Quick-scale output pinned by the golden file:
// Figure 8 (the curve-merge aggregation path) and a two-gamma slice of
// Figure 10 (the summary/latency aggregation path). The seeds are the
// figures' own pinned formulas, so the bytes depend only on simulator and
// aggregation behavior.
func quickGolden() (string, error) {
	var b strings.Builder
	curves, err := Figure8(Quick, Quick.Duration/10, Options{})
	if err != nil {
		return "", fmt.Errorf("figure 8: %w", err)
	}
	b.WriteString(RenderFigure8(curves))
	rows, err := Figure10(Quick, []int{2, 6}, Options{})
	if err != nil {
		return "", fmt.Errorf("figure 10: %w", err)
	}
	b.WriteString(RenderFigure10(rows))
	return b.String(), nil
}

// TestQuickScaleGolden pins the rendered Quick-scale experiment output
// byte-for-byte. The file was generated by the sequential pre-campaign
// code; the campaign engine must reproduce it exactly (same seeds, same
// per-run order fed to the aggregators) whatever the worker count used to
// produce intermediate results.
func TestQuickScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale simulation golden skipped in -short mode")
	}
	got, err := quickGolden()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick_golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("quick-scale output drifted from the pre-refactor sequential golden.\n"+
			"If the change is intentional, rerun with -update and explain in the commit.\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}
