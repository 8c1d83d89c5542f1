package native

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gogen"
)

// cur is the file-name suffix of a binary built by the current codegen.
const cur = "." + gogen.Version + ".bin"

// quotaCache opens a cache over a temp dir without requiring the go
// toolchain — quota logic never shells out.
func quotaCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(t.TempDir(), moduleRootForTest(t))
	if err != nil {
		t.Skipf("native cache unavailable: %v", err)
	}
	return c
}

func moduleRootForTest(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// plant writes a fake cached binary of the given size whose last-use
// timestamp is age ago.
func plant(t *testing.T, c *Cache, name string, size int, age time.Duration) string {
	t.Helper()
	path := filepath.Join(c.Dir(), name)
	if err := os.WriteFile(path, make([]byte, size), 0o755); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
	return path
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestQuotaEvictsLRU(t *testing.T) {
	c := quotaCache(t)
	oldest := plant(t, c, "a"+cur, 1000, 3*time.Hour)
	middle := plant(t, c, "b"+cur, 1000, 2*time.Hour)
	newest := plant(t, c, "c"+cur, 1000, time.Hour)
	notBin := plant(t, c, "README", 5000, 5*time.Hour) // never quota fodder

	c.SetMaxBytes(2500)

	if exists(oldest) {
		t.Error("oldest binary survived a quota that required one eviction")
	}
	if !exists(middle) || !exists(newest) {
		t.Error("quota evicted more than it needed to")
	}
	if !exists(notBin) {
		t.Error("quota deleted a non-.bin file")
	}
	if got := c.Evictions(); got != 1 {
		t.Errorf("Evictions() = %d, want 1", got)
	}

	// Tighten further: the next-oldest goes too.
	c.SetMaxBytes(1500)
	if exists(middle) {
		t.Error("middle binary survived the tightened quota")
	}
	if !exists(newest) {
		t.Error("newest binary evicted while still under quota")
	}
	if got := c.Evictions(); got != 2 {
		t.Errorf("Evictions() = %d, want 2", got)
	}
}

func TestQuotaGraceSparesHotBinaries(t *testing.T) {
	c := quotaCache(t)
	cold := plant(t, c, "cold"+cur, 1000, time.Hour)
	hot := plant(t, c, "hot1"+cur, 1000, 0)
	hot2 := plant(t, c, "hot2"+cur, 1000, 0)

	// Quota of one file: the cold binary goes, but the two hot ones are
	// both inside the grace window — the cache runs over quota rather
	// than evicting something about to be exec'd.
	c.SetMaxBytes(1000)
	if exists(cold) {
		t.Error("cold binary survived")
	}
	if !exists(hot) || !exists(hot2) {
		t.Error("grace window did not protect recently used binaries")
	}
	if got := c.Evictions(); got != 1 {
		t.Errorf("Evictions() = %d, want 1", got)
	}
}

func TestQuotaCountsStaleVersions(t *testing.T) {
	c := quotaCache(t)
	stale := plant(t, c, strings.Repeat("a", 64)+".g1.bin", 4000, 2*time.Hour)
	fresh := plant(t, c, strings.Repeat("b", 64)+cur, 1000, time.Hour)

	c.SetMaxBytes(2000)
	if exists(stale) {
		t.Error("stale-version binary should be first out: it can never be adopted")
	}
	if !exists(fresh) {
		t.Error("current-version binary evicted while stale one was available")
	}
}

func TestTouchRefreshesEvictionOrder(t *testing.T) {
	c := quotaCache(t)
	shaA := strings.Repeat("1", 64)
	shaB := strings.Repeat("2", 64)
	a := plant(t, c, shaA+cur, 1000, 3*time.Hour)
	b := plant(t, c, shaB+cur, 1000, 2*time.Hour)

	// A run touches the older binary; the other one is now the LRU.
	c.Touch(shaA)
	c.SetMaxBytes(1000)
	if !exists(a) {
		t.Error("touched binary was evicted")
	}
	if exists(b) {
		t.Error("untouched binary survived")
	}
}

func TestRemoveDeletesBinary(t *testing.T) {
	c := quotaCache(t)
	sha := strings.Repeat("c", 64)
	path := plant(t, c, sha+cur, 100, 0)
	c.Remove(sha)
	if exists(path) {
		t.Error("Remove left the binary on disk")
	}
	c.Remove(sha) // idempotent: removing a missing binary is fine
}

func TestSweepStaleTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "x"+cur+".tmp")
	young := filepath.Join(dir, "y"+cur+".tmp")
	for _, p := range []string{stale, young} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := NewCache(dir, moduleRootForTest(t)); err != nil {
		t.Skipf("native cache unavailable: %v", err)
	}
	if exists(stale) {
		t.Error("stale .tmp survived NewCache")
	}
	if !exists(young) {
		t.Error("young .tmp was swept; it may belong to a live build")
	}
}
