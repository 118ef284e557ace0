package workload

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Revision identifies what the catalog generators emit. A catalog
// workload's run-cache key hashes its Recipe, not its op streams, so any
// change to the ops a generator produces for some (ranks, scale) must bump
// Revision; TestCatalogGolden pins each family's op-stream digest to
// enforce it.
const Revision = 1

// Recipe is the complete identity of a catalog workload: the generators are
// pure functions of (family, ranks, scale), and Revision versions the
// generator code itself. Two workloads with equal recipes have identical
// op streams.
type Recipe struct {
	Family   string
	Ranks    int
	Scale    float64
	Revision int
}

// deferred is the generation state of a catalog workload. owner points back
// at the workload it belongs to, so a struct copy of a catalog workload —
// which may then be edited — no longer claims the recipe.
type deferred struct {
	owner  *Workload
	recipe Recipe
	once   sync.Once
}

// Defer returns the named catalog workload without generating it. Name and
// Scale are set at once; the op fields are filled on the first Load. Keying
// a deferred workload costs a recipe hash, so a run-cache hit never
// generates an op. Unknown names fail with ErrUnknown.
func Defer(name string, ranks int, scale float64) (*Workload, error) {
	if !Known(name) {
		if near := Nearest(name); near != "" {
			return nil, fmt.Errorf("workload: %w %q (closest known family: %q)", ErrUnknown, name, near)
		}
		return nil, fmt.Errorf("workload: %w %q", ErrUnknown, name)
	}
	w := &Workload{Name: name, Scale: scale}
	w.lazy = &deferred{
		owner:  w,
		recipe: Recipe{Family: name, Ranks: ranks, Scale: scale, Revision: Revision},
	}
	return w, nil
}

// Recipe returns the workload's catalog recipe. ok is false for a workload
// built any other way, including a struct copy of a catalog workload.
func (w *Workload) Recipe() (Recipe, bool) {
	if w.lazy == nil || w.lazy.owner != w {
		return Recipe{}, false
	}
	return w.lazy.recipe, true
}

// Load generates a deferred workload's op streams. It runs the generator at
// most once, writes only the op fields (never Name or Scale), and is safe
// for concurrent use; on any other workload it does nothing. Code that
// reads the op fields of a workload from Defer must call Load first.
func (w *Workload) Load() {
	l := w.lazy
	if l == nil || l.owner != w {
		return
	}
	l.once.Do(func() {
		g := catalog[l.recipe.Family](l.recipe.Ranks, l.recipe.Scale)
		w.Interface, w.Ranks, w.Files = g.Interface, g.Ranks, g.Files
		w.DirCount, w.Phases, w.ComputePerOp = g.DirCount, g.Phases, g.ComputePerOp
	})
}

// WriteContent writes the workload's complete content — name, interface,
// scale, think time, file table, phases, and every op of every rank — to
// h in a fixed encoding. It is the identity of a workload that has no
// recipe. The caller must have loaded a deferred workload.
func (w *Workload) WriteContent(h io.Writer) {
	fmt.Fprintf(h, "workload %q iface %q scale %g compute %g dirs %d\n",
		w.Name, w.Interface, w.Scale, w.ComputePerOp, w.DirCount)
	var buf [29]byte
	for _, fm := range w.Files {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(fm.Dir))
		buf[4] = 0
		if fm.Shared {
			buf[4] = 1
		}
		h.Write(buf[:5])
	}
	for _, ph := range w.Phases {
		fmt.Fprintf(h, "phase %q %d\n", ph.Name, ph.Start)
	}
	for _, ops := range w.Ranks {
		for _, op := range ops {
			buf[0] = byte(op.Type)
			binary.LittleEndian.PutUint32(buf[1:5], uint32(op.File))
			binary.LittleEndian.PutUint32(buf[5:9], uint32(op.Dir))
			binary.LittleEndian.PutUint64(buf[9:17], uint64(op.Offset))
			binary.LittleEndian.PutUint64(buf[17:25], uint64(op.Size))
			binary.LittleEndian.PutUint32(buf[25:29], uint32(op.Index))
			h.Write(buf[:])
		}
		// A rank boundary marker keeps (rank0: a,b)(rank1: c) distinct
		// from (rank0: a)(rank1: b,c).
		h.Write([]byte{0xff, 'r', 'a', 'n', 'k'})
	}
}
