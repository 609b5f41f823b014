package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	stenciltune "repro"
	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/svmrank"
	"repro/internal/tunespace"
)

// update regenerates the committed golden fixture:
//
//	go test ./internal/store -run TestGolden -update
//
// The fixture is a real (tiny) trained model, so the golden files exercise
// the exact bytes a production save emits.
var update = flag.Bool("update", false, "regenerate the golden model fixture under testdata/")

const (
	fixtureStore = "testdata"
	fixtureName  = "tiny"
)

// goldenCase pins the score of one (instance, vector) prediction. Scores are
// stored as JSON float64s, which round-trip exactly, so the comparison below
// is bit-exact.
type goldenCase struct {
	Kernel string           `json:"kernel"`
	Size   []int            `json:"size"`
	Vector tunespace.Vector `json:"vector"`
	Score  float64          `json:"score"`
}

func goldenInstances(t *testing.T) []stencil.Instance {
	t.Helper()
	var out []stencil.Instance
	for _, c := range []struct {
		name string
		size stencil.Size
	}{
		{"laplacian", stencil.Size3D(64, 64, 64)},
		{"blur", stencil.Size2D(256, 256)},
		{"tricubic", stencil.Size3D(96, 96, 96)},
	} {
		k, err := stencil.KernelByName(c.name)
		if err != nil {
			t.Fatalf("KernelByName(%q): %v", c.name, err)
		}
		out = append(out, stencil.Instance{Kernel: k, Size: c.size})
	}
	return out
}

func scoreCases(t *testing.T, m *svmrank.Model) []goldenCase {
	t.Helper()
	enc := feature.NewEncoder()
	var out []goldenCase
	for _, q := range goldenInstances(t) {
		cands := tunespace.NewSpace(q.Kernel.Dims()).Predefined()
		for i := 0; i < 8; i++ {
			tv := cands[i*len(cands)/8]
			out = append(out, goldenCase{
				Kernel: q.Kernel.Name,
				Size:   []int{q.Size.X, q.Size.Y, q.Size.Z},
				Vector: tv,
				Score:  m.Score(enc.Encode(q, tv)),
			})
		}
	}
	return out
}

// TestGoldenFixture pins the on-disk format: the committed fixture must load,
// re-save to byte-identical files, and reproduce the committed prediction
// scores exactly. Any format or scoring change shows up as an explicit diff
// of testdata/ (regenerate deliberately with -update).
func TestGoldenFixture(t *testing.T) {
	if *update {
		model, _, err := stenciltune.Train(stenciltune.TrainOptions{TrainingPoints: 64, Seed: 1})
		if err != nil {
			t.Fatalf("training fixture model: %v", err)
		}
		if err := stenciltune.SaveModel(fixtureStore, fixtureName, model); err != nil {
			t.Fatalf("saving fixture: %v", err)
		}
		a, err := store.LoadPath(filepath.Join(fixtureStore, fixtureName))
		if err != nil {
			t.Fatalf("reloading fixture: %v", err)
		}
		b, err := json.MarshalIndent(scoreCases(t, a.Model), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fixtureStore, "golden_scores.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("fixture regenerated")
	}

	a, err := store.LoadPath(filepath.Join(fixtureStore, fixtureName))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if a.Name != fixtureName {
		t.Errorf("fixture name = %q, want %q", a.Name, fixtureName)
	}
	if a.Meta.DatasetFingerprint == "" || a.Meta.TrainingPoints == 0 {
		t.Errorf("fixture meta lacks provenance: %+v", a.Meta)
	}
	if a.Machine == nil {
		t.Fatal("fixture has no machine description")
	}

	// Byte-stable: saving the loaded artifact must reproduce the committed
	// files exactly.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(a); err != nil {
		t.Fatalf("re-saving fixture: %v", err)
	}
	for _, f := range []string{"manifest.json", "model.json", "meta.json", "machine.json"} {
		want, err := os.ReadFile(filepath.Join(fixtureStore, fixtureName, f))
		if err != nil {
			t.Fatalf("fixture file %s: %v", f, err)
		}
		got, err := os.ReadFile(filepath.Join(st.Dir(), fixtureName, f))
		if err != nil {
			t.Fatalf("re-saved file %s: %v", f, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-saved bytes differ from committed fixture (format drift — regenerate with -update only if intended)", f)
		}
	}

	// Score-identical predictions.
	gb, err := os.ReadFile(filepath.Join(fixtureStore, "golden_scores.json"))
	if err != nil {
		t.Fatalf("golden scores: %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(gb, &want); err != nil {
		t.Fatal(err)
	}
	got := scoreCases(t, a.Model)
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, recomputed %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("case %d (%s %v %v): score %v, golden %v",
				i, want[i].Kernel, want[i].Size, want[i].Vector, got[i].Score, want[i].Score)
		}
	}
}

func testArtifact(name string) *store.Artifact {
	w := make([]float64, feature.Dim)
	// Deterministic, irregular weights exercising exact float round-trip,
	// zero below feature.TailStart as Save requires.
	for i := feature.TailStart; i < len(w); i++ {
		w[i] = float64(i*i%97)/97.0 - 0.5
	}
	return &store.Artifact{
		Name:  name,
		Model: &svmrank.Model{W: w, C: 3},
		Meta: store.Meta{
			FeatureDim:         feature.Dim,
			TrainingPoints:     64,
			Seed:               1,
			Mode:               "sim",
			DatasetFingerprint: "deadbeef",
		},
		Machine: machine.XeonE52680v3(),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact("m1")
	if err := st.Save(a); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("m1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Model, a.Model) {
		t.Error("model did not round-trip")
	}
	if got.Meta.FeatureDim != feature.Dim || got.Meta.DatasetFingerprint != "deadbeef" {
		t.Errorf("meta did not round-trip: %+v", got.Meta)
	}
	if !reflect.DeepEqual(got.Machine, a.Machine) {
		t.Error("machine did not round-trip")
	}

	// save -> load -> save must be byte-stable.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(got); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"manifest.json", "model.json", "meta.json", "machine.json"} {
		b1, err := os.ReadFile(filepath.Join(st.Dir(), "m1", f))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(st2.Dir(), "m1", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: save→load→save not byte-stable", f)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testArtifact("m")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "m", "model.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("m"); err == nil {
		t.Fatal("loading a corrupted artifact succeeded")
	}
}

func TestListAndLoadPath(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "default", "alpha"} {
		if err := st.Save(testArtifact(name)); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Name != "alpha" || infos[1].Name != "default" || infos[2].Name != "zeta" {
		t.Fatalf("List = %+v, want alpha, default, zeta", infos)
	}
	for _, in := range infos {
		if in.ContentHash == "" {
			t.Errorf("artifact %s has empty content hash", in.Name)
		}
	}

	// Store root with several artifacts resolves to "default".
	a, err := store.LoadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "default" {
		t.Errorf("LoadPath(root) = %q, want default", a.Name)
	}
	// Direct artifact directory works too.
	a, err = store.LoadPath(filepath.Join(dir, "zeta"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "zeta" {
		t.Errorf("LoadPath(artifact dir) = %q, want zeta", a.Name)
	}

	// Invalid names are rejected before touching the filesystem.
	if _, err := st.Load("../escape"); err == nil {
		t.Error("Load with path traversal succeeded")
	}
	if err := st.Save(&store.Artifact{Name: ".hidden", Model: testArtifact("x").Model}); err == nil {
		t.Error("Save with hidden name succeeded")
	}
}

// rewriteModel replaces the weights of a saved artifact on disk and updates
// its manifest entry, as a foreign tool writing its own artifact would.
func rewriteModel(t *testing.T, dir string, w []float64) {
	t.Helper()
	b, err := json.Marshal(map[string]any{"feature_dim": len(w), "w": w, "c": 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "model.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, "manifest.json")
	mb, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	for _, f := range m["files"].([]any) {
		if e := f.(map[string]any); e["path"] == "model.json" {
			e["sha256"], e["bytes"] = hex.EncodeToString(sum[:]), len(b)
		}
	}
	if mb, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, mb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWeightsGuard: Save and Load refuse weights that cannot score as they
// were fitted: a non-zero or NaN weight below feature.TailStart, where no
// feature is encoded, weights that end before it, and weights wider than
// feature.Dim. The artifact is refused when saved and, written by another
// tool, when loaded.
func TestWeightsGuard(t *testing.T) {
	head := testArtifact("m").Model.W
	head[171] = 0.5
	nan := testArtifact("m").Model.W
	nan[0] = math.NaN()
	for _, c := range []struct {
		name, want string
		w          []float64
	}{
		{"head weight", "weight 171", head},
		{"NaN head weight", "weight 0", nan},
		{"300 wide", "300 weights", make([]float64, 300)},
		{"wider than Dim", "442 weights", make([]float64, feature.Dim+1)},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		a := testArtifact("m")
		a.Meta.FeatureDim = 0
		a.Model.W = c.w
		if err := st.Save(a); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Save error %v, want one naming %q", c.name, err, c.want)
		}
		if slices.ContainsFunc(c.w, math.IsNaN) {
			continue // JSON has no NaN, so only Save can be handed one
		}
		if err := st.Save(testArtifact("m")); err != nil {
			t.Fatal(err)
		}
		rewriteModel(t, filepath.Join(st.Dir(), "m"), c.w)
		if _, err := st.Load("m"); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
