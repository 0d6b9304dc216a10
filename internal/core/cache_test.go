package core

import (
	"testing"

	"checl/internal/ocl"
)

// TestInfoCachesServeLocally: immutable info queries — platform list,
// device list, platform/device info, build info, kernel work-group info
// — are answered from the object database without a wire call once
// warm. setupVaddApp already asked for platforms and devices, so the
// list caches are warm on entry.
func TestInfoCachesServeLocally(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)

	plats, err := c.GetPlatformIDs() // warm from setup
	if err != nil {
		t.Fatal(err)
	}

	calls0 := c.px.Client.Stats().Calls
	hits0 := c.CacheStats().Hits

	if _, err := c.GetPlatformIDs(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPlatformInfo(plats[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetDeviceIDs(plats[0], ocl.DeviceTypeAll); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetDeviceInfo(app.dev); err != nil {
		t.Fatal(err)
	}

	if calls := c.px.Client.Stats().Calls; calls != calls0 {
		t.Errorf("cached info queries cost %d wire calls; want 0", calls-calls0)
	}
	if hits := c.CacheStats().Hits; hits != hits0+4 {
		t.Errorf("cache hits = %d, want %d", hits, hits0+4)
	}

	// Build info and work-group info: one round trip to fill, then local.
	if _, err := c.GetProgramBuildInfo(app.prog, app.dev); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetKernelWorkGroupInfo(app.k, app.dev); err != nil {
		t.Fatal(err)
	}
	calls1 := c.px.Client.Stats().Calls
	bi1, err := c.GetProgramBuildInfo(app.prog, app.dev)
	if err != nil {
		t.Fatal(err)
	}
	wg1, err := c.GetKernelWorkGroupInfo(app.k, app.dev)
	if err != nil {
		t.Fatal(err)
	}
	if calls := c.px.Client.Stats().Calls; calls != calls1 {
		t.Errorf("repeat build/wg info queries cost %d wire calls; want 0", calls-calls1)
	}
	if !bi1.Success {
		t.Error("cached build info lost the success flag")
	}
	if wg1.WorkGroupSize <= 0 {
		t.Errorf("cached work-group info is empty: %+v", wg1)
	}
}

// TestCacheInvalidationOnRestore: the caches are unexported database
// fields, so a checkpoint never serialises them; a restored CheCL
// starts cold and its first info query re-forwards against the new
// binding (no stale real handles can be served).
func TestCacheInvalidationOnRestore(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{})
	app := setupVaddApp(t, c, 64)

	wgBefore, err := c.GetKernelWorkGroupInfo(app.k, app.dev)
	if err != nil {
		t.Fatal(err)
	}
	app.launch(t)
	app.finish(t)
	if _, err := c.Checkpoint(node.LocalDisk, "cache.ckpt"); err != nil {
		t.Fatal(err)
	}
	nc, _, err := Restore(node, node.LocalDisk, "cache.ckpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Detach()

	st := nc.CacheStats()
	if st.Gen == 0 {
		t.Error("restore did not bump the cache generation (rebind must invalidate)")
	}
	if st.Hits != 0 {
		t.Errorf("restored CheCL inherited %d cache hits; caches must not survive serialisation", st.Hits)
	}

	// First query after restore forwards; the second hits.
	calls0 := nc.px.Client.Stats().Calls
	wgAfter, err := nc.GetKernelWorkGroupInfo(app.k, app.dev)
	if err != nil {
		t.Fatal(err)
	}
	if nc.px.Client.Stats().Calls == calls0 {
		t.Error("post-restore work-group query did not forward; a stale cache answered")
	}
	if wgAfter != wgBefore {
		t.Errorf("work-group info diverged across restore: %+v vs %+v", wgAfter, wgBefore)
	}
	hits := nc.CacheStats().Hits
	if _, err := nc.GetKernelWorkGroupInfo(app.k, app.dev); err != nil {
		t.Fatal(err)
	}
	if nc.CacheStats().Hits != hits+1 {
		t.Error("second post-restore work-group query missed the refilled cache")
	}
}

// TestCacheInvalidationOnFailover: an AutoFailover rebind lands on a
// fresh proxy; every cached answer described the dead binding and must
// be dropped, then refilled against the new one.
func TestCacheInvalidationOnFailover(t *testing.T) {
	node := newNodeNV("pc0")
	_, c := attach(t, node, Options{AutoFailover: true})
	app := setupVaddApp(t, c, 64)

	if _, err := c.GetKernelWorkGroupInfo(app.k, app.dev); err != nil {
		t.Fatal(err)
	}
	gen0 := c.CacheStats().Gen

	c.Proxy().Kill()
	if err := c.Finish(app.q); err != nil {
		t.Fatalf("finish after crash (should fail over): %v", err)
	}
	if c.FailoverStats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", c.FailoverStats().Failovers)
	}
	if gen := c.CacheStats().Gen; gen <= gen0 {
		t.Errorf("failover rebind did not invalidate caches: gen %d -> %d", gen0, gen)
	}

	// The wg cache is cold again: first query forwards, second hits.
	calls0 := c.px.Client.Stats().Calls
	if _, err := c.GetKernelWorkGroupInfo(app.k, app.dev); err != nil {
		t.Fatal(err)
	}
	if c.px.Client.Stats().Calls == calls0 {
		t.Error("post-failover work-group query served from a stale cache")
	}
	hits := c.CacheStats().Hits
	if _, err := c.GetKernelWorkGroupInfo(app.k, app.dev); err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits != hits+1 {
		t.Error("refilled cache not hit after failover")
	}

	// Platform/device answers are refreshed by the rebind and still valid.
	plats, err := c.GetPlatformIDs()
	if err != nil || len(plats) == 0 {
		t.Fatalf("platform list after failover: %v (%d)", err, len(plats))
	}
	if _, err := c.GetDeviceInfo(app.dev); err != nil {
		t.Fatalf("device info after failover: %v", err)
	}
}
