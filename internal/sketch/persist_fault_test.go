package sketch_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// TestPatchedTreeResaveCrashSafety is the fault-injection companion to
// the bit-flip tests: re-saving a patched tree must be atomic, so a
// crash between writing the temp file and publishing it (the rename)
// leaves either the old valid file or the new valid file — never a
// torn one — and the orphaned temp must not confuse later loads.
func TestPatchedTreeResaveCrashSafety(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 400, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.PrepareContext(context.Background(), db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := sketch.NewStore(dir)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1}
	base := sketch.BuildTree(prep.Instance, opts)
	key := sketch.Key{
		Fingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Attrs:       "5,6", Tau: 16, Depth: 2, Seed: 1,
	}
	if err := store.Save(key, base); err != nil {
		t.Fatal(err)
	}

	// Patch the tree (an insert batch) and crash the re-save at the
	// rename: the write completed, the publish did not.
	for i := 0; i < 4; i++ {
		stmt := fmt.Sprintf("INSERT INTO recipes VALUES (%d, 'f%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)",
			70000+i, i, 640+i*25, 25+i)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	prep2, err := core.PrepareContext(context.Background(), db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	remap := remapByID(prep.Instance.Rows, prep2.Instance.Rows)
	patched, ok := base.ApplyDelta(prep2.Instance.Rows, remap, opts)
	if !ok {
		t.Fatal("patch rejected")
	}
	newKey := key
	newKey.Fingerprint = sketch.Fingerprint(prep2.Instance.Rows)

	var orphan string
	restore := sketch.SetRenameHook(func(tmp, dst string) error {
		orphan = tmp
		return fmt.Errorf("injected crash before rename")
	})
	if err := store.Save(newKey, patched); err == nil {
		t.Fatal("crashed save must report the failure")
	}
	restore()

	// Old file: still present, still valid, still loads the base tree.
	got, err := store.Load(key)
	if err != nil || got == nil {
		t.Fatalf("old file unusable after crashed resave: (%v, %v)", got, err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatal("old file content changed across the crash")
	}
	// New key: a clean miss (the caller rebuilds/patches again), not a
	// torn read.
	if tr, err := store.Load(newKey); tr != nil || err != nil {
		t.Fatalf("new key after crash: got (%v, %v), want clean miss", tr, err)
	}
	// Simulate the truly-orphaned temp a hard crash would leave (the
	// error path above removed its own), and verify it is inert.
	stray := filepath.Join(dir, ".pbtree-stray")
	if err := os.WriteFile(stray, []byte("partial payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if orphan != "" && !strings.HasPrefix(filepath.Base(orphan), ".pbtree-") {
		t.Fatalf("temp file %q not namespaced away from tree files", orphan)
	}
	if got, err := store.Load(key); err != nil || got == nil {
		t.Fatalf("stray temp broke loading: (%v, %v)", got, err)
	}

	// The second half of the guarantee: a crash-free re-save publishes
	// the new file atomically and both generations stay readable.
	if err := store.Save(newKey, patched); err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.Load(newKey)
	if err != nil || reloaded == nil {
		t.Fatalf("resave after crash recovery failed: (%v, %v)", reloaded, err)
	}
	if !reflect.DeepEqual(reloaded, patched) {
		t.Fatal("reloaded patched tree differs")
	}
	if got, err := store.Load(key); err != nil || got == nil {
		t.Fatalf("old generation vanished: (%v, %v)", got, err)
	}
}

// TestSolvePersistsPatchedTree checks the full engine path: a solve
// that patches a stale tree re-persists it, so a cold process sees the
// patched generation on disk.
func TestSolvePersistsPatchedTree(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 400, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.PrepareContext(context.Background(), db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, PersistDir: dir}
	if _, err := sketch.Solve(prep.Instance, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO recipes VALUES (70010, 'p', 'fusion', 'dinner', 'free', 700, 33, 10, 50, 9.5, 4.5)"); err != nil {
		t.Fatal(err)
	}
	prep2, err := core.PrepareContext(context.Background(), db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	fp := sketch.Fingerprint(prep2.Instance.Rows)
	popts := opts
	popts.Fingerprint = &fp
	popts.Patch = &sketch.PatchSpec{
		BaseFingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Remap:           remapByID(prep.Instance.Rows, prep2.Instance.Rows),
	}
	res, err := sketch.Solve(prep2.Instance, popts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TreePatched {
		t.Fatalf("disk-tier lineage did not patch: %v", res.Notes)
	}
	// A brand-new evaluation (no cache, no lineage) over the new data
	// must load the re-persisted patched tree instead of rebuilding.
	cold, err := sketch.Solve(prep2.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.TreeLoaded {
		t.Fatalf("patched tree not re-persisted: %v", cold.Notes)
	}
}
