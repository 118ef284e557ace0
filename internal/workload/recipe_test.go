package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"testing"
)

// catalogGolden pins each catalog family's op-stream digest at
// goldenRanks and goldenScale, taken at generator revision
// catalogGoldenRevision. Catalog workloads are keyed by recipe, so a
// generator change that leaves Revision alone would let caches serve
// results measured on the old op streams.
const (
	catalogGoldenRevision = 1
	goldenRanks           = 8
	goldenScale           = 0.05
)

var catalogGolden = map[string]string{
	"AMReX":          "3e9a59e98672420c137c20b6d6401882ee52814011b6da7cc7d55cef4620608d",
	"E3SM":           "00e3967502767239ca4968f8635a0c8da83e489a9674485563759cb07ecba1cf",
	"H5Bench":        "656c1be7e0163dfffaacf1747fdad8c9305a05c3b172dbc9f1118d79bc969b3a",
	"IO500":          "d3fae1b437efe0a9df3d69040bc0dd86a1b969a0b1ac7f3a71cadd73806a3afe",
	"IOR_16M":        "9b4a948a0012c40660f8e0b97afbc66b5fd690e4ba78c224cf491048768e3a6b",
	"IOR_64K":        "204eb0dbad43c502487054353d8848577ae1fcb8752382beb3bf4ba3d563e2dc",
	"MACSio_16M":     "8d68998c6e9edd153e441b1fcc04238bbacd855cab61830cd5708820dd55218f",
	"MACSio_512K":    "f80295e356b15f08ea11666e8a2a6ec18864c84f5ec71e0a58052ee088313aac",
	"MDWorkbench_2K": "d099dd722c578cfa1ba28376a76553de2b29c58eabc98923752eeb1d3841abad",
	"MDWorkbench_8K": "e52533ada34f4a48a70ff75fd482bf1f1d52b1962c03f63520085e8cdfcb2344",
	"darshan-replay": "1876af4a87ce9dcddef15a9eb8cb8ba32147d67c469e23665905df6b0e300023",
	"multitenant":    "a0669fdcc79795ed0eac49c16e1b5dabfa38cebb6908068b94ebdb0c4ca5e5ca",
}

func contentDigest(w *Workload) string {
	h := sha256.New()
	w.WriteContent(h)
	return hex.EncodeToString(h.Sum(nil))
}

func TestCatalogGolden(t *testing.T) {
	names := make([]string, 0, len(catalog))
	for name := range catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, err := Catalog(name, goldenRanks, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		got, want := contentDigest(w), catalogGolden[name]
		switch {
		case Revision != catalogGoldenRevision:
			t.Errorf("%s: Revision is %d but the pins are for %d: update catalogGoldenRevision and pin %s", name, Revision, catalogGoldenRevision, got)
		case got != want:
			t.Errorf("%s: op streams changed (digest %s, pinned %s): bump workload.Revision and update the pin", name, got, want)
		}
	}
}

// TestDeferMatchesGenerators: Defer sets Name and Scale before generating,
// and Load never writes them, so each generator must label its workload
// with its catalog name and the scale it was given.
func TestDeferMatchesGenerators(t *testing.T) {
	for name, gen := range catalog {
		g := gen(goldenRanks, goldenScale)
		if g.Name != name || g.Scale != goldenScale {
			t.Errorf("%s: generator labels its workload %q at scale %g", name, g.Name, g.Scale)
		}
		d, err := Defer(name, goldenRanks, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		if d.Ranks != nil {
			t.Fatalf("%s: Defer generated ops", name)
		}
		d.Load()
		if contentDigest(d) != contentDigest(g) {
			t.Errorf("%s: loaded deferred workload differs from the generator's", name)
		}
		r, ok := d.Recipe()
		want := Recipe{Family: name, Ranks: goldenRanks, Scale: goldenScale, Revision: Revision}
		if !ok || r != want {
			t.Errorf("%s: recipe %+v, %v; want %+v", name, r, ok, want)
		}
	}
	if _, err := Defer("bogus", 4, 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Defer(bogus) = %v, want ErrUnknown", err)
	}
}

// TestCopyLosesRecipe: a struct copy may be edited, so it must be
// identified by its content, not by the original's recipe. Workloads
// built outside the catalog have no recipe either.
func TestCopyLosesRecipe(t *testing.T) {
	w, err := Catalog("IOR_16M", 4, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Recipe(); !ok {
		t.Fatal("catalog workload has no recipe")
	}
	clone := *w
	if _, ok := clone.Recipe(); ok {
		t.Fatal("struct copy kept the recipe")
	}
	clone.Load() // a no-op on a copy
	if contentDigest(&clone) != contentDigest(w) {
		t.Fatal("Load changed a copy")
	}
	if _, ok := IOR16M(4, goldenScale).Recipe(); ok {
		t.Fatal("directly generated workload has a recipe")
	}
}

// TestConcurrentLoad: readers of Name and concurrent Loads of one deferred
// workload must not race (run under -race), and every Load must observe
// the single generation.
func TestConcurrentLoad(t *testing.T) {
	w, err := Defer("MDWorkbench_8K", goldenRanks, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	want := catalogGolden["MDWorkbench_8K"]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(load bool) {
			defer wg.Done()
			if w.Name != "MDWorkbench_8K" {
				t.Error("Name changed")
			}
			if load {
				w.Load()
				if got := contentDigest(w); got != want {
					t.Errorf("concurrent Load digest %s, want %s", got, want)
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
}
