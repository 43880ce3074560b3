package core

// Cross-process determinism for the disk artifact tier: a fresh Store over
// a warm directory stands in for a second process, and its outcomes must
// match the cold run exactly — including when the warm process resumes an
// ECO from a disk-loaded base artifact, and when the directory has been
// corrupted under it.

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/geom"
	"repro/internal/route"
)

// diskParams builds Params whose store is layered over dir, returning the
// store for stats assertions.
func diskParams(t *testing.T, dir string, workers int) (Params, *artifact.Store) {
	t.Helper()
	d, err := artifact.NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := artifact.NewStore(0).WithDisk(d)
	return Params{Workers: workers, Artifacts: store}, store
}

// corruptArtifacts damages every cache file in dir in place and returns
// how many it touched.
func corruptArtifacts(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".art" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("rot"), 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestDiskWarmStartMatchesCold is the tentpole contract across process
// boundaries: a cold run populates the directory, then fresh stores over
// the same directory — at different worker counts — reproduce every
// outcome without routing anything, with disk hits to prove it.
func TestDiskWarmStartMatchesCold(t *testing.T) {
	dir := t.TempDir()
	base := smallDesign(t, 80, 0.4, 7)

	coldP, coldStore := diskParams(t, dir, 1)
	cold, err := NewRunner(base, coldP)
	if err != nil {
		t.Fatal(err)
	}
	var coldOut []*Outcome
	for _, f := range allFlows {
		o, err := cold.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		coldOut = append(coldOut, o)
	}
	cs := coldStore.Stats()
	if cs.Disk.Writes == 0 || cs.Disk.Hits != 0 {
		t.Fatalf("cold run disk stats = %+v, want writes and no hits", cs.Disk)
	}

	for _, workers := range []int{1, 4} {
		warmP, warmStore := diskParams(t, dir, workers)
		warm, err := NewRunner(base, warmP)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range allFlows {
			o, err := warm.Run(f)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "warm vs cold", o, coldOut[i])
		}
		ws := warmStore.Stats()
		if ws.Misses != 0 {
			t.Errorf("workers %d: warm run routed %d times; want zero", workers, ws.Misses)
		}
		if ws.Disk.Hits == 0 {
			t.Errorf("workers %d: warm run never hit disk: %+v", workers, ws.Disk)
		}
	}
}

// TestDiskCorruptionDegradesToRecompute: with every cache file rotted in
// place, a fresh store still produces the cold outcomes — each load is a
// counted corrupt miss that falls through to a recompute which heals the
// directory for the next process.
func TestDiskCorruptionDegradesToRecompute(t *testing.T) {
	dir := t.TempDir()
	base := smallDesign(t, 60, 0.5, 3)

	coldP, _ := diskParams(t, dir, 1)
	cold, err := NewRunner(base, coldP)
	if err != nil {
		t.Fatal(err)
	}
	var coldOut []*Outcome
	for _, f := range allFlows {
		o, err := cold.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		coldOut = append(coldOut, o)
	}

	if n := corruptArtifacts(t, dir); n == 0 {
		t.Fatal("no cache files to corrupt")
	}
	rotP, rotStore := diskParams(t, dir, 1)
	rot, err := NewRunner(base, rotP)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range allFlows {
		o, err := rot.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "corrupt-dir vs cold", o, coldOut[i])
	}
	rs := rotStore.Stats()
	if rs.Disk.Corrupt == 0 || rs.Misses == 0 {
		t.Fatalf("corrupt-dir stats = %+v, want corrupt loads and recomputes", rs)
	}

	healedP, healedStore := diskParams(t, dir, 1)
	healed, err := NewRunner(base, healedP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := healed.Run(FlowGSINO); err != nil {
		t.Fatal(err)
	}
	if hs := healedStore.Stats(); hs.Disk.Hits == 0 || hs.Disk.Corrupt != 0 {
		t.Fatalf("recompute did not heal the directory: %+v", hs.Disk)
	}
}

// TestECORunnerResumesFromDiskBase: the ECO runner's base-artifact probe
// reaches the disk tier, so a second process can resume an incremental
// re-route from a directory warmed by the first — with outcomes identical
// to a from-scratch route of the edited design.
func TestECORunnerResumesFromDiskBase(t *testing.T) {
	delta := testDelta()
	for _, workers := range []int{1, 4} {
		// Fresh directory per worker count: a shared one would already
		// hold the first iteration's *edited* artifacts, and the second
		// ECO run would disk-hit those directly instead of resuming.
		dir := t.TempDir()
		base := smallDesign(t, 80, 0.4, 2)
		baseP, _ := diskParams(t, dir, workers)
		baseR, err := NewRunner(base, baseP)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range allFlows {
			if _, err := baseR.Run(f); err != nil {
				t.Fatal(err)
			}
		}

		// "Second process": fresh memory tier, same directory.
		ecoP, ecoStore := diskParams(t, dir, workers)
		ecoR, err := NewECORunner(base, delta, ecoP)
		if err != nil {
			t.Fatal(err)
		}
		edited, err := ApplyDelta(base, delta)
		if err != nil {
			t.Fatal(err)
		}
		refR, err := NewRunner(edited, Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range allFlows {
			eo, err := ecoR.Run(f)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := refR.Run(f)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "disk eco vs scratch", eo, ro)
			if i == 0 && eo.ECO.EditedNets == 0 {
				t.Errorf("workers %d: ECO resumed nothing — disk-loaded base not used", workers)
			}
		}
		if es := ecoStore.Stats(); es.Disk.Hits == 0 {
			t.Errorf("workers %d: ECO runner never read the warm directory: %+v", workers, es.Disk)
		}
	}
}

// TestForgedArtifactRejected: a file that passes every codec check — the
// checksum, version, fingerprint and key all hold, because the forged
// result was sealed under the real key — but whose trees do not fit the
// design must fail the flow with an error naming the key. Unchecked, each
// forgery reaches buildState, which indexes the trees on the runner
// goroutine, outside the engine's panic recovery.
func TestForgedArtifactRejected(t *testing.T) {
	d := smallDesign(t, 80, 0.4, 7)
	dir := t.TempDir()
	p, _ := diskParams(t, dir, 1)
	r, err := NewRunner(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(FlowGSINO); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one artifact file, got %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	spread := -1 // a net whose pins span regions, so its tree needs edges
	for i, n := range routeNetsFor(d) {
		if slices.ContainsFunc(n.Pins, func(p geom.Point) bool { return p != n.Pins[0] }) {
			spread = i
			break
		}
	}
	if spread < 0 {
		t.Fatal("fixture has no net whose pins span regions")
	}
	forgeries := map[string]func(t *testing.T, res *route.Result){
		"dropped tree": func(t *testing.T, res *route.Result) { res.Trees = res.Trees[:len(res.Trees)-1] },
		"edge off grid": func(t *testing.T, res *route.Result) {
			for i := range res.Trees {
				if es := res.Trees[i].Edges; len(es) > 0 {
					es[0].From.X += 500
					es[0].To.X += 500
					return
				}
			}
			t.Fatal("no tree has an edge")
		},
		"empty tree": func(t *testing.T, res *route.Result) {
			res.Trees[spread].Edges = nil
		},
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			art, err := artifact.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := art.Result()
			if err != nil {
				t.Fatal(err)
			}
			forge(t, res)
			forgedDir := t.TempDir()
			disk, err := artifact.NewDiskStore(forgedDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := disk.Save(artifact.Seal(art.Key(), res, art.Drain())); err != nil {
				t.Fatal(err)
			}
			fp, _ := diskParams(t, forgedDir, 1)
			fr, err := NewRunner(d, fp)
			if err != nil {
				t.Fatal(err)
			}
			_, err = fr.Run(FlowGSINO)
			if err == nil || !strings.Contains(err.Error(), art.Key().String()) {
				t.Fatalf("forged artifact: err = %v, want an error naming key %s", err, art.Key())
			}
		})
	}
}
