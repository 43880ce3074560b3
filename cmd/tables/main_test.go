package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/report"
	"repro/internal/sched"
)

// TestGoldenTables pins the reproduction's Tables 1–3: the stdout and CSV
// of `tables -scale 16` (all six circuits, seed 1), rendered in-process
// through the same cells and renderer as the command. A behaviour change
// shows up here as a reviewed diff of testdata; on mismatch the rendered
// bytes are written beside the golden files as .got.
func TestGoldenTables(t *testing.T) {
	cells, err := buildCells("ibm01,ibm02,ibm03,ibm04,ibm05,ibm06", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := report.NewSet()
	results, err := sched.Run(context.Background(), cells, sched.Config{
		Artifacts: artifact.NewStore(0),
		OnResult: func(r sched.Result) {
			if r.Err == nil {
				set.Add(r.Outcome)
			}
		},
	})
	if err == nil {
		err = sched.FirstError(results)
	}
	if err != nil {
		t.Fatal(err)
	}
	var stdout, csv bytes.Buffer
	if err := set.Tables(&stdout); err != nil {
		t.Fatal(err)
	}
	if err := set.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"scale16.txt": stdout.Bytes(), "scale16.csv": csv.Bytes()} {
		path := filepath.Join("testdata", name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			if err := os.WriteFile(path+".got", got, 0o644); err != nil {
				t.Error(err)
			}
			t.Errorf("%s: rendered bytes differ from the golden file; wrote %s.got", path, path)
		}
	}
}
