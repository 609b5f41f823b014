// Package store is the persistent model store of the serving subsystem: it
// saves trained tuning artifacts — the ranking-SVM weights, the trainer
// provenance (feature encoding, normalization, training options, dataset
// fingerprint) and the machine description the simulator evaluated on — to a
// versioned on-disk format, and loads them back for the HTTP tuning server
// and the cmd binaries. Train once, serve many.
//
// # Format
//
// A store is a directory; each artifact is a subdirectory holding small JSON
// documents plus a manifest:
//
//	<store>/<name>/model.json     weights (exact float64 round-trip), C
//	<store>/<name>/meta.json      trainer provenance (Meta)
//	<store>/<name>/machine.json   simulator machine description (optional)
//	<store>/<name>/manifest.json  format version + sha256 of every file
//
// The encoding is deterministic: the same artifact always serializes to the
// same bytes (Go's JSON encoder emits struct fields in declaration order and
// shortest-round-trip floats, and Save injects no timestamps), so saved
// artifacts can be content-addressed, diffed and committed as golden test
// fixtures. Writes land atomically per file (tmp+rename, manifest last; see
// Save for the exact crash-consistency contract), and Load verifies every
// content hash before returning, so a torn, mixed or hand-edited artifact
// fails loudly instead of serving skewed predictions.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/feature"
	"repro/internal/machine"
	"repro/internal/svmrank"
)

// FormatVersion tags the on-disk layout. Bump it when the file set or any
// document schema changes incompatibly; Load rejects unknown versions.
const FormatVersion = 1

// File names of an artifact directory.
const (
	manifestFile = "manifest.json"
	modelFile    = "model.json"
	metaFile     = "meta.json"
	machineFile  = "machine.json"
)

// currentFile is the store-level promotion pointer: which artifact the
// serving layer should treat as current, plus the promotion history that put
// it there. It is written atomically, so a crash mid-promotion leaves either
// the old pointer or the new one — never a torn document.
const currentFile = "current.json"

// tmpSweepAge is how old an orphaned .tmp-* file must be before Open removes
// it. The grace window keeps a concurrent Save's in-flight tmp file safe; a
// crash's leftovers are, by definition, older than any live write by the time
// the process restarts and reopens the store.
const tmpSweepAge = time.Hour

// Meta is the trainer provenance persisted with a model: everything needed
// to audit what a serving model was fitted on, and to refuse loading it into
// an incompatible build.
type Meta struct {
	// FeatureDim is the feature-space dimensionality the weights index;
	// loading into a build whose encoder disagrees is refused.
	FeatureDim int `json:"feature_dim"`
	// FeatureNames labels every weight component (feature.Names order), so
	// a stored model is self-describing for inspection tooling.
	FeatureNames []string `json:"feature_names,omitempty"`
	// Normalization documents the feature scaling the encoder applied.
	Normalization string `json:"normalization,omitempty"`

	// Training provenance.
	TrainingPoints int     `json:"training_points,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	Mode           string  `json:"mode,omitempty"` // "sim", "measure" or "custom"
	Sampling       string  `json:"sampling,omitempty"`
	C              float64 `json:"c,omitempty"`
	Epochs         int     `json:"epochs,omitempty"`
	PairStrategy   string  `json:"pair_strategy,omitempty"`
	PairWindow     int     `json:"pair_window,omitempty"`
	Pairs          int     `json:"pairs,omitempty"`

	// DatasetFingerprint is dataset.Set.Fingerprint() of the training set:
	// two models sharing it were fitted on byte-identical data.
	DatasetFingerprint string `json:"dataset_fingerprint,omitempty"`
}

// Artifact is one stored model with its provenance.
type Artifact struct {
	// Name is the artifact's directory name within the store; it must be a
	// single non-hidden path element.
	Name    string
	Model   *svmrank.Model
	Meta    Meta
	Machine *machine.Machine // nil when the training substrate had none (measure mode)
}

// manifest is the integrity document written last.
type manifest struct {
	FormatVersion int             `json:"format_version"`
	Name          string          `json:"name"`
	Files         []manifestEntry `json:"files"`
}

type manifestEntry struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// persistedModel is the model.json schema.
type persistedModel struct {
	FeatureDim int       `json:"feature_dim"`
	W          []float64 `json:"w"`
	C          float64   `json:"c"`
}

// Store is a directory of named artifacts.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory when missing.
// It also sweeps orphaned .tmp-* files — the debris a crash between
// writeAtomic's tmp write and its rename leaves behind — from the store root
// and every artifact directory, with an age grace so a Save racing in another
// process is never robbed of its in-flight file.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sweepOrphans(dir)
	return &Store{dir: dir}, nil
}

// sweepOrphans removes stale .tmp-* files under dir and its immediate
// subdirectories. Sweeping is best-effort housekeeping: any error (a racing
// unlink, a permission oddity) is ignored rather than failing Open.
func sweepOrphans(root string) {
	cutoff := time.Now().Add(-tmpSweepAge)
	sweepDir := func(dir string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			info, err := e.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	sweepDir(root)
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			sweepDir(filepath.Join(root, e.Name()))
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func validName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("store: invalid artifact name %q", name)
	}
	return nil
}

// encode renders a document deterministically: two-space indentation and a
// trailing newline, the exact bytes the golden fixtures commit.
func encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// testHookBeforeRename, when non-nil, runs after the tmp file is fully
// written and before the rename that publishes it. Crash-consistency tests
// panic here to simulate a kill at the torn-write point.
var testHookBeforeRename func(tmp, path string)

// writeAtomic lands content at path via tmp+rename so readers never observe
// a partially written file.
func writeAtomic(path string, content []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	// Cleanup is explicit per error path, not deferred: the crash hook
	// simulates a kill by panicking, and a kill would not run defers — the
	// orphaned tmp it leaves is exactly what Open's sweep exists for.
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp opens 0600; artifacts are world-readable like any build
	// output.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if testHookBeforeRename != nil {
		testHookBeforeRename(tmp.Name(), path)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Save persists the artifact under its name, overwriting any previous
// version. Every file lands via tmp+rename (readers never observe a torn
// file) and the manifest is written last. Saving a *new* artifact is
// all-or-nothing: without a manifest the directory is not an artifact.
// Re-saving over an existing artifact is not atomic as a whole — a crash
// between the first document rename and the manifest rename can leave the
// old manifest describing new file contents — but the hash verification in
// Load turns that into a loud, fail-stop load error rather than silently
// serving a mixed artifact; re-run Save to repair.
func (s *Store) Save(a *Artifact) error {
	if err := validName(a.Name); err != nil {
		return err
	}
	if a.Model == nil {
		return fmt.Errorf("store: artifact %q has no model weights", a.Name)
	}
	if err := checkWeights(a.Model.W); err != nil {
		return fmt.Errorf("store: artifact %q: %w", a.Name, err)
	}
	meta := a.Meta
	if meta.FeatureDim == 0 {
		meta.FeatureDim = len(a.Model.W)
	}
	if meta.FeatureDim != len(a.Model.W) {
		return fmt.Errorf("store: artifact %q: meta feature dim %d, model has %d weights",
			a.Name, meta.FeatureDim, len(a.Model.W))
	}

	docs := []struct {
		path string
		v    any
	}{
		{modelFile, persistedModel{FeatureDim: len(a.Model.W), W: a.Model.W, C: a.Model.C}},
		{metaFile, meta},
	}
	if a.Machine != nil {
		docs = append(docs, struct {
			path string
			v    any
		}{machineFile, a.Machine})
	}

	dir := filepath.Join(s.dir, a.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	m := manifest{FormatVersion: FormatVersion, Name: a.Name}
	for _, d := range docs {
		b, err := encode(d.v)
		if err != nil {
			return fmt.Errorf("store: encoding %s: %w", d.path, err)
		}
		if err := writeAtomic(filepath.Join(dir, d.path), b); err != nil {
			return fmt.Errorf("store: writing %s: %w", d.path, err)
		}
		m.Files = append(m.Files, manifestEntry{Path: d.path, SHA256: hashOf(b), Bytes: len(b)})
	}
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	mb, err := encode(m)
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, manifestFile), mb); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	// A previous save may have written machine.json this one doesn't carry;
	// remove it only after the new manifest landed, so a crash anywhere
	// above leaves the old manifest with every file it references intact.
	if a.Machine == nil {
		os.Remove(filepath.Join(dir, machineFile))
	}
	return nil
}

// Load reads, hash-verifies and decodes the named artifact.
func (s *Store) Load(name string) (*Artifact, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return LoadDir(filepath.Join(s.dir, name))
}

// LoadDir loads an artifact directly from its directory (one containing
// manifest.json). The artifact's name is taken from the manifest.
func LoadDir(dir string) (*Artifact, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("store: decoding manifest in %s: %w", dir, err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("store: artifact %s has format version %d, this build reads %d",
			dir, m.FormatVersion, FormatVersion)
	}
	files := make(map[string][]byte, len(m.Files))
	for _, f := range m.Files {
		if filepath.Base(f.Path) != f.Path {
			return nil, fmt.Errorf("store: manifest in %s references non-local path %q", dir, f.Path)
		}
		b, err := os.ReadFile(filepath.Join(dir, f.Path))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if got := hashOf(b); got != f.SHA256 {
			return nil, fmt.Errorf("store: %s/%s content hash %s does not match manifest %s (corrupt or hand-edited artifact)",
				dir, f.Path, got[:12], f.SHA256[:min(12, len(f.SHA256))])
		}
		files[f.Path] = b
	}

	pmb, ok := files[modelFile]
	if !ok {
		return nil, fmt.Errorf("store: artifact %s has no %s", dir, modelFile)
	}
	var pm persistedModel
	if err := json.Unmarshal(pmb, &pm); err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", modelFile, err)
	}
	if len(pm.W) != pm.FeatureDim {
		return nil, fmt.Errorf("store: artifact %s: %d weights, declared dim %d", dir, len(pm.W), pm.FeatureDim)
	}
	if err := checkWeights(pm.W); err != nil {
		return nil, fmt.Errorf("store: artifact %s: %w", dir, err)
	}
	a := &Artifact{
		Name:  m.Name,
		Model: &svmrank.Model{W: pm.W, C: pm.C},
	}
	if b, ok := files[metaFile]; ok {
		if err := json.Unmarshal(b, &a.Meta); err != nil {
			return nil, fmt.Errorf("store: decoding %s: %w", metaFile, err)
		}
	}
	if b, ok := files[machineFile]; ok {
		a.Machine = &machine.Machine{}
		if err := json.Unmarshal(b, a.Machine); err != nil {
			return nil, fmt.Errorf("store: decoding %s: %w", machineFile, err)
		}
		if err := a.Machine.Validate(); err != nil {
			return nil, fmt.Errorf("store: artifact %s: %w", dir, err)
		}
	}
	return a, nil
}

// checkWeights refuses weights this build cannot score as they were fitted.
// The encoding emits no index below feature.TailStart, so weights that end
// at or before it rank nothing, and a non-zero or NaN weight below it would
// be dropped silently. Weights past feature.Dim index features this build
// does not encode. A narrower model predates features appended since (the
// encoding only ever grows at the end): its weights load unchanged, and
// feature.Vector.Dot treats indices past len(W) as zero weight, so it keeps
// scoring exactly as it did when trained.
func checkWeights(w []float64) error {
	if len(w) <= feature.TailStart {
		return fmt.Errorf("%d weights end before the first encoded feature, index %d", len(w), feature.TailStart)
	}
	if len(w) > feature.Dim {
		return fmt.Errorf("%d weights, this build encodes only %d features", len(w), feature.Dim)
	}
	for i, v := range w[:feature.TailStart] {
		if v != 0 { // NaN too
			return fmt.Errorf("weight %d is %v, below the first encoded feature, index %d", i, v, feature.TailStart)
		}
	}
	return nil
}

// Info summarizes one stored artifact for listings.
type Info struct {
	Name string `json:"name"`
	Meta Meta   `json:"meta"`
	// ContentHash identifies the artifact's exact content: the hash of its
	// manifest, which in turn hashes every file.
	ContentHash string `json:"content_hash"`
}

// List returns the artifacts in the store, sorted by name. Subdirectories
// without a manifest are skipped (not errors), so a store can live alongside
// unrelated files. Listing reads only the manifest and the (hash-verified)
// meta document — not the weights — so it stays cheap for large stores; a
// subsequent Load performs the full verification.
func (s *Store) List() ([]Info, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Info
	for _, e := range entries {
		if !e.IsDir() || validName(e.Name()) != nil {
			continue
		}
		dir := filepath.Join(s.dir, e.Name())
		mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			continue // not an artifact
		}
		var m manifest
		if err := json.Unmarshal(mb, &m); err != nil {
			return nil, fmt.Errorf("store: decoding manifest of %q: %w", e.Name(), err)
		}
		if m.FormatVersion != FormatVersion {
			return nil, fmt.Errorf("store: artifact %q has format version %d, this build reads %d",
				e.Name(), m.FormatVersion, FormatVersion)
		}
		info := Info{Name: e.Name(), ContentHash: hashOf(mb)}
		for _, f := range m.Files {
			if f.Path != metaFile {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, metaFile))
			if err != nil {
				return nil, fmt.Errorf("store: artifact %q: %w", e.Name(), err)
			}
			if got := hashOf(b); got != f.SHA256 {
				return nil, fmt.Errorf("store: %s/%s content hash does not match manifest (corrupt artifact)", e.Name(), metaFile)
			}
			if err := json.Unmarshal(b, &info.Meta); err != nil {
				return nil, fmt.Errorf("store: artifact %q: decoding %s: %w", e.Name(), metaFile, err)
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// LoadPath loads an artifact from either an artifact directory (one holding
// a manifest.json) or a store root, where it picks the artifact named
// "default" or, failing that, the store's only artifact.
func LoadPath(path string) (*Artifact, error) {
	if _, err := os.Stat(filepath.Join(path, manifestFile)); err == nil {
		return LoadDir(path)
	}
	st, err := Open(path)
	if err != nil {
		return nil, err
	}
	infos, err := st.List()
	if err != nil {
		return nil, err
	}
	switch {
	case len(infos) == 0:
		return nil, fmt.Errorf("store: no artifacts in %s", path)
	case len(infos) == 1:
		return st.Load(infos[0].Name)
	}
	for _, in := range infos {
		if in.Name == "default" {
			return st.Load("default")
		}
	}
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	return nil, fmt.Errorf("store: %s holds %d artifacts (%s) and none is named \"default\"; pass the artifact directory",
		path, len(infos), strings.Join(names, ", "))
}

// Promotion is one entry of the store's promotion history: who became
// current, who it displaced, and the canary evidence that justified the move.
type Promotion struct {
	// Name is the artifact that became current.
	Name string `json:"name"`
	// Prev is the artifact it displaced, if any.
	Prev string `json:"prev,omitempty"`
	// Tau is the candidate's held-out mean Kendall tau at promotion time.
	Tau float64 `json:"tau,omitempty"`
	// IncumbentTau is the displaced model's tau on the same held-out set.
	IncumbentTau float64 `json:"incumbent_tau,omitempty"`
	// Records is how many WAL observations the candidate was trained with.
	Records int `json:"records,omitempty"`
	// Reason is a short human-readable why: "canary-pass", "rollback",
	// "manual", ...
	Reason string `json:"reason,omitempty"`
	// UnixNano is the promotion wall-clock timestamp, when known.
	UnixNano int64 `json:"unix_nano,omitempty"`
}

// maxPromotionHistory bounds the history kept in current.json so a long-lived
// retrain loop cannot grow the pointer document without limit.
const maxPromotionHistory = 50

// currentDoc is the current.json schema.
type currentDoc struct {
	FormatVersion int         `json:"format_version"`
	Name          string      `json:"name"`
	History       []Promotion `json:"history,omitempty"`
}

// SetCurrent atomically repoints the store's current artifact at name and
// appends p to the promotion history. The named artifact must already be
// fully saved: the pointer flip is the commit point of a promotion, so a
// crash on either side of it leaves the store serving a complete model — the
// old one before the flip, the new one after.
func (s *Store) SetCurrent(name string, p Promotion) error {
	if err := validName(name); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(s.dir, name, manifestFile)); err != nil {
		return fmt.Errorf("store: cannot point current at %q: %w", name, err)
	}
	// A corrupt existing pointer is not fatal to repointing: promotion
	// starts a fresh history rather than refusing to repair the store.
	cur, hist, _ := s.Current()
	p.Name = name
	if p.Prev == "" {
		p.Prev = cur
	}
	hist = append(hist, p)
	if len(hist) > maxPromotionHistory {
		hist = hist[len(hist)-maxPromotionHistory:]
	}
	b, err := encode(currentDoc{FormatVersion: FormatVersion, Name: name, History: hist})
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", currentFile, err)
	}
	if err := writeAtomic(filepath.Join(s.dir, currentFile), b); err != nil {
		return fmt.Errorf("store: writing %s: %w", currentFile, err)
	}
	return nil
}

// Current reads the promotion pointer: the current artifact's name and the
// promotion history that led to it. A store that has never promoted returns
// ("", nil, nil); a corrupt pointer returns an error so callers can fall back
// to their default-selection rules instead of serving a guess.
func (s *Store) Current() (string, []Promotion, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, currentFile))
	if os.IsNotExist(err) {
		return "", nil, nil
	}
	if err != nil {
		return "", nil, fmt.Errorf("store: %w", err)
	}
	var doc currentDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return "", nil, fmt.Errorf("store: decoding %s: %w", currentFile, err)
	}
	if doc.FormatVersion != FormatVersion {
		return "", nil, fmt.Errorf("store: %s has format version %d, this build reads %d",
			currentFile, doc.FormatVersion, FormatVersion)
	}
	if doc.Name == "" {
		return "", nil, fmt.Errorf("store: %s names no artifact", currentFile)
	}
	if err := validName(doc.Name); err != nil {
		return "", nil, err
	}
	return doc.Name, doc.History, nil
}
