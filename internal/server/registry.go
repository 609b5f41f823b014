package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

// loadedModel is one servable artifact: the ranking tuner around its weights
// plus the simulator for the machine it was trained against.
type loadedModel struct {
	info  store.Info
	art   *store.Artifact
	tuner *core.Tuner
	// sim is the deterministic evaluator for this model's machine
	// description (the training default when the artifact carries none).
	// *perfmodel.Model is read-only and safe for any concurrency.
	sim *perfmodel.Model
}

// regState is one immutable generation of the registry: the loaded models, a
// monotonically increasing version, and the store's promotion history at load
// time. Handlers snapshot the whole generation once per request, so an
// in-flight request keeps answering from the model set it started on even
// while a retrain promotes a new one underneath it.
type regState struct {
	models      map[string]*loadedModel
	names       []string
	defaultName string
	version     int64
	history     []store.Promotion
	loadedAt    time.Time
	// generation is a content-derived fingerprint of the loaded model set
	// (names, content hashes, default). Unlike version — a per-process
	// reload counter — it is identical across replicas serving the same
	// store state, so a load balancer can check a fleet is in lockstep.
	generation string
	// skipped lists artifacts present in the store that failed to load on
	// this generation (torn re-save, incompatible feature dim, ...); they are
	// reported, not served.
	skipped []string
}

// Registry is the set of models a server instance answers for. It is a
// hot-swap structure: an atomic pointer to an immutable regState, replaced
// wholesale by Reload (SIGHUP, retrain promotion) and never mutated in place.
// Lock-free on the read path — handlers call snapshot once and never lock.
type Registry struct {
	dir string
	cur atomic.Pointer[regState]
	// reloadMu serializes reloads so versions stay monotonic; readers never
	// touch it.
	reloadMu sync.Mutex
}

// loadRegistry builds a registry over the store at dir and loads generation 1.
func loadRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir}
	st, err := loadRegState(dir, 1)
	if err != nil {
		return nil, err
	}
	r.cur.Store(st)
	return r, nil
}

// loadRegState hash-verifies and loads every artifact in the store at dir.
// The default model is the store's current.json promotion pointer when it
// names a loadable artifact; otherwise the artifact named "default", the only
// artifact, or the first in name order. Artifacts that fail to load (a torn
// concurrent re-save, a hand-edited file) are skipped so one bad directory
// cannot take down a reload — but a store with no loadable artifact at all is
// an error, and the corrupt model is never served.
func loadRegState(dir string, version int64) (*regState, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	infos, err := st.List()
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("server: no model artifacts in %s (train one with stencil-train -save %s)", dir, dir)
	}
	rs := &regState{
		models:   make(map[string]*loadedModel, len(infos)),
		version:  version,
		loadedAt: time.Now(),
	}
	var firstErr error
	for _, in := range infos {
		art, err := st.Load(in.Name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			rs.skipped = append(rs.skipped, in.Name)
			continue
		}
		mach := art.Machine
		if mach == nil {
			mach = machine.XeonE52680v3()
		}
		rs.models[in.Name] = &loadedModel{
			info:  in,
			art:   art,
			tuner: core.New(art.Model),
			sim:   perfmodel.New(mach),
		}
		rs.names = append(rs.names, in.Name)
	}
	if len(rs.names) == 0 {
		return nil, fmt.Errorf("server: no loadable artifact in %s: %w", dir, firstErr)
	}
	sort.Strings(rs.names)
	rs.defaultName = rs.names[0]
	if _, ok := rs.models["default"]; ok {
		rs.defaultName = "default"
	}
	// The store's promotion pointer overrides the naming conventions — but
	// only when it names a model that actually loaded; a corrupt pointer or a
	// pointer at a corrupt artifact falls back instead of failing the server.
	cur, hist, err := st.Current()
	if err == nil && cur != "" {
		if _, ok := rs.models[cur]; ok {
			rs.defaultName = cur
		}
	}
	rs.history = hist
	rs.generation = contentGeneration(rs)
	return rs, nil
}

// contentGeneration hashes what the generation serves — every loaded model's
// name and content hash plus the default — so replicas loading the same
// store state report the same value regardless of how many local reloads
// each has been through.
func contentGeneration(rs *regState) string {
	h := sha256.New()
	for _, name := range rs.names {
		io.WriteString(h, name)
		io.WriteString(h, "\x00")
		io.WriteString(h, rs.models[name].info.ContentHash)
		io.WriteString(h, "\x00")
	}
	io.WriteString(h, rs.defaultName)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// snapshot returns the current immutable generation. Handlers call it exactly
// once per request and use only the returned state, which pins their model
// version for the request's whole lifetime.
func (r *Registry) snapshot() *regState { return r.cur.Load() }

// Version returns the currently served registry generation.
func (r *Registry) Version() int64 { return r.snapshot().version }

// Reload loads a fresh generation from the store directory and atomically
// swaps it in. On any load error the running generation stays in place
// untouched — a half-written store can delay a reload, never degrade serving.
// In-flight requests complete on the generation they snapshotted.
func (r *Registry) Reload() (int64, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	next := r.cur.Load().version + 1
	st, err := loadRegState(r.dir, next)
	if err != nil {
		return r.cur.Load().version, err
	}
	r.cur.Store(st)
	return st.version, nil
}

// resolve returns the named model from this generation, or the generation's
// default for an empty name.
func (rs *regState) resolve(name string) (*loadedModel, error) {
	if name == "" {
		name = rs.defaultName
	}
	m, ok := rs.models[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q (loaded: %v)", name, rs.names)
	}
	return m, nil
}
