package main

import (
	"bytes"
	"context"
	"fmt"
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
func TestGoldenTables(t *testing.T) { checkGolden(t, 16) }

// TestGoldenTablesScale4 pins `tables -scale 4`, the command's default
// scale, the same way. Its reconciliation rounds rip up thousands of nets,
// where scale 16's rip up a few hundred.
func TestGoldenTablesScale4(t *testing.T) {
	if testing.Short() {
		t.Skip("scale 4 runs all 36 cells in about 10 s")
	}
	checkGolden(t, 4)
}

// checkGolden renders the tables and CSV of all six circuits at scale,
// seed 1, and byte-diffs them against testdata/scale<scale>.txt and .csv.
func checkGolden(t *testing.T, scale int) {
	cells, err := buildCells("ibm01,ibm02,ibm03,ibm04,ibm05,ibm06", scale, 1)
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
	name := fmt.Sprintf("scale%d", scale)
	for ext, got := range map[string][]byte{".txt": stdout.Bytes(), ".csv": csv.Bytes()} {
		path := filepath.Join("testdata", name+ext)
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

// TestBuildCellsRejectsRepeatedCircuit: a circuit named twice, spaces
// around a name included, is refused before any circuit is generated
// (report.Set keeps one row per circuit, so the repeat would only redo
// its six cells).
func TestBuildCellsRejectsRepeatedCircuit(t *testing.T) {
	for _, list := range []string{"ibm01,ibm01", "ibm01, ibm02,ibm01 ", "ibm03,bogus, ibm03"} {
		if cells, err := buildCells(list, 16, 1); err == nil {
			t.Errorf("-circuits %q: accepted, %d cells", list, len(cells))
		}
	}
	if cells, err := buildCells("ibm01, ibm02", 16, 1); err != nil || len(cells) != 12 {
		t.Errorf("-circuits \"ibm01, ibm02\": %d cells, err %v; want 12 cells", len(cells), err)
	}
}
