package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/svmrank"
)

// Internal crash-consistency tests: they reach the testHookBeforeRename hook
// to simulate a kill between writeAtomic's tmp write and its rename, and the
// orphan sweep that cleans up afterwards.

// crashArtifact returns an artifact of irregular weights, zero below
// feature.TailStart as Save requires.
func crashArtifact(name string) *Artifact {
	w := make([]float64, feature.Dim)
	for i := feature.TailStart; i < len(w); i++ {
		w[i] = float64(i%7) - 3
	}
	return &Artifact{
		Name:  name,
		Model: &svmrank.Model{W: w, C: 3},
		Meta:  Meta{FeatureDim: feature.Dim},
	}
}

// withCrashOn installs a hook that panics (as a stand-in for SIGKILL) the
// first time a rename would publish a file whose name contains target.
func withCrashOn(t *testing.T, target string) {
	t.Helper()
	fired := false
	testHookBeforeRename = func(tmp, path string) {
		if !fired && strings.Contains(filepath.Base(path), target) {
			fired = true
			panic("injected crash before rename of " + path)
		}
	}
	t.Cleanup(func() { testHookBeforeRename = nil })
}

func expectPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("injected crash did not fire")
		}
	}()
	f()
}

// TestTornWriteNewArtifact kills Save between writing the first document's
// tmp file and renaming it: the directory must not become a half-artifact —
// no manifest means List skips it and Load refuses it — and the orphaned tmp
// is swept by a later Open once past the grace age.
func TestTornWriteNewArtifact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	withCrashOn(t, modelFile)
	expectPanic(t, func() { st.Save(crashArtifact("m")) })
	testHookBeforeRename = nil

	if _, err := st.Load("m"); err == nil {
		t.Fatal("half-written artifact loaded")
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("half-written artifact listed: %+v", infos)
	}
	// The kill left the tmp file behind.
	tmps := findTmp(t, filepath.Join(dir, "m"))
	if len(tmps) != 1 {
		t.Fatalf("want exactly 1 orphaned tmp after the crash, found %v", tmps)
	}
	// Within the grace window, reopening must NOT sweep it (it could be a
	// live writer's file); once aged out, it must.
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := findTmp(t, filepath.Join(dir, "m")); len(got) != 1 {
		t.Fatalf("fresh tmp swept inside grace window: %v", got)
	}
	old := time.Now().Add(-2 * tmpSweepAge)
	if err := os.Chtimes(tmps[0], old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := findTmp(t, filepath.Join(dir, "m")); len(got) != 0 {
		t.Fatalf("aged orphan tmp survived Open: %v", got)
	}
	// The store is not wedged: re-running Save completes the artifact.
	if err := st.Save(crashArtifact("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("m"); err != nil {
		t.Fatalf("Save after crash did not repair the artifact: %v", err)
	}
}

func findTmp(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestTornWriteResave kills a re-Save before the manifest rename, after the
// document renames: the documented contract is fail-stop — Load must reject
// the mixed directory loudly (old manifest, new documents), never return a
// silently mixed artifact — and a re-run of Save repairs it.
func TestTornWriteResave(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(crashArtifact("m")); err != nil {
		t.Fatal(err)
	}
	v2 := crashArtifact("m")
	v2.Model.W[feature.TailStart] = 42 // distinguishable new content
	withCrashOn(t, manifestFile)
	expectPanic(t, func() { st.Save(v2) })
	testHookBeforeRename = nil

	if a, err := st.Load("m"); err == nil {
		// Loading may only succeed if it returns a consistent artifact; with
		// model.json already replaced and the old manifest in place, the hash
		// check must have failed — reaching here means mixing went unnoticed.
		t.Fatalf("mixed artifact loaded silently (W[%d]=%v)", feature.TailStart, a.Model.W[feature.TailStart])
	}
	if err := st.Save(v2); err != nil {
		t.Fatal(err)
	}
	a, err := st.Load("m")
	if err != nil {
		t.Fatalf("Save after crash did not repair: %v", err)
	}
	if a.Model.W[feature.TailStart] != 42 {
		t.Fatalf("repair did not land v2: W[%d]=%v", feature.TailStart, a.Model.W[feature.TailStart])
	}
}

// TestTornWriteCurrentPointer kills SetCurrent before current.json's rename:
// the pointer must still read as its previous value — a promotion is atomic
// at the pointer flip.
func TestTornWriteCurrentPointer(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if err := st.Save(crashArtifact(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetCurrent("a", Promotion{Reason: "manual"}); err != nil {
		t.Fatal(err)
	}
	withCrashOn(t, currentFile)
	expectPanic(t, func() { st.SetCurrent("b", Promotion{Reason: "canary-pass"}) })
	testHookBeforeRename = nil

	cur, hist, err := st.Current()
	if err != nil {
		t.Fatalf("pointer unreadable after crash: %v", err)
	}
	if cur != "a" {
		t.Fatalf("pointer after mid-promotion crash = %q, want previous %q", cur, "a")
	}
	if len(hist) != 1 || hist[0].Reason != "manual" {
		t.Fatalf("history after crash = %+v, want the pre-crash entry", hist)
	}
	// Retrying the promotion completes it.
	if err := st.SetCurrent("b", Promotion{Reason: "canary-pass"}); err != nil {
		t.Fatal(err)
	}
	cur, hist, err = st.Current()
	if err != nil || cur != "b" {
		t.Fatalf("retried promotion: cur=%q err=%v", cur, err)
	}
	if len(hist) != 2 || hist[1].Prev != "a" {
		t.Fatalf("history after retry = %+v", hist)
	}
}

// TestCurrentPointer covers the pointer API away from crashes: unset stores,
// refusing absent artifacts, corrupt pointers failing loudly but being
// repairable, and the bounded history.
func TestCurrentPointer(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur, hist, err := st.Current(); err != nil || cur != "" || hist != nil {
		t.Fatalf("fresh store pointer: %q %v %v, want empty", cur, hist, err)
	}
	if err := st.SetCurrent("ghost", Promotion{}); err == nil {
		t.Fatal("SetCurrent accepted an artifact that does not exist")
	}
	if err := st.Save(crashArtifact("m")); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCurrent("m", Promotion{Tau: 0.9, Reason: "canary-pass"}); err != nil {
		t.Fatal(err)
	}
	cur, hist, err := st.Current()
	if err != nil || cur != "m" {
		t.Fatalf("Current = %q, %v", cur, err)
	}
	if len(hist) != 1 || hist[0].Tau != 0.9 || hist[0].Prev != "" {
		t.Fatalf("history = %+v", hist)
	}

	// Corrupt pointer: loud error, no guessing...
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Current(); err == nil {
		t.Fatal("corrupt current.json read back without error")
	}
	// ...and SetCurrent repairs it rather than refusing.
	if err := st.SetCurrent("m", Promotion{Reason: "repair"}); err != nil {
		t.Fatal(err)
	}
	if cur, _, err := st.Current(); err != nil || cur != "m" {
		t.Fatalf("after repair: %q %v", cur, err)
	}

	// History is bounded.
	for i := 0; i < maxPromotionHistory+13; i++ {
		if err := st.SetCurrent("m", Promotion{Reason: "churn"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, hist, _ := st.Current(); len(hist) != maxPromotionHistory {
		t.Fatalf("history length %d, want capped at %d", len(hist), maxPromotionHistory)
	}
}
