package core

// Proxy fault tolerance. The API proxy is disposable state: every real
// OpenCL object it holds can be recreated from the shadow object database
// (the same §III-C machinery a restart uses). forward wraps every proxied
// interaction so that when the connection to the proxy is unrecoverable —
// the proxy process crashed, or every reconnect attempt failed — CheCL
// spawns a fresh proxy, rebinds all objects in dependency order, and
// transparently re-issues the interrupted call.
//
// Device buffer contents are the one thing the database cannot recreate
// by replay alone: they live only in the dead proxy's device memory
// between checkpoints. With AutoFailover CheCL keeps host-side shadow
// copies (reusing the staged-copy field the checkpoint preprocess phase
// uses): it mirrors host-visible transfers (EnqueueWrite/CopyBuffer) and
// reads back every buffer a kernel may have written after each launch, so
// a failover re-uploads current data and loses nothing.

import (
	"errors"
	"fmt"

	"checl/internal/ipc"
	"checl/internal/proxy"
	"checl/internal/vtime"
)

// FailoverStats counts proxy failovers and their cost.
type FailoverStats struct {
	Failovers     int            // fresh proxies spawned after a crash
	ReplayedCalls int64          // API calls re-executed to rebind the database
	LastRecovery  vtime.Duration // rebind time of the most recent failover
	TotalRecovery vtime.Duration // rebind time across all failovers
}

// FailoverStats reports the failovers absorbed so far.
func (c *CheCL) FailoverStats() FailoverStats { return c.fstats }

// maxFailoverAttempts bounds how many consecutive proxy respawns one call
// may trigger before the error surfaces.
const maxFailoverAttempts = 3

// shadowOn reports whether buffers are shadowed: a failover re-uploads
// their shadows, so AutoFailover is what turns the shadowing on.
func (c *CheCL) shadowOn() bool { return c.opts.AutoFailover }

// forward runs one proxied interaction. fn receives the current proxy
// client and must re-read every translated handle it uses (records are
// pointers, so rec.real re-reads naturally), because after a failover the
// same logical objects live behind new real handles. On an unrecoverable
// connection error forward fails the proxy over and re-runs fn.
func (c *CheCL) forward(op string, fn func(api *proxy.Client) error) error {
	err := fn(c.px.Client)
	for attempt := 0; err != nil && errors.Is(err, ipc.ErrConnDown); attempt++ {
		if !c.opts.AutoFailover || c.inFailover || attempt >= maxFailoverAttempts {
			return err
		}
		if ferr := c.failover(); ferr != nil {
			return fmt.Errorf("checl: %s: proxy failover: %w", op, ferr)
		}
		// Re-issuing the interrupted call is part of the recovery: it runs
		// with injection suspended, like the rebind itself, so a periodic
		// fault plan cannot resonate with the rebind length and crash every
		// re-issue of the same call forever. Faults resume with the next
		// application call.
		if c.opts.Fault != nil {
			c.opts.Fault.Suspend()
		}
		err = fn(c.px.Client)
		if c.opts.Fault != nil {
			c.opts.Fault.Resume()
		}
	}
	return err
}

// failover replaces the dead proxy with a fresh one and rebinds every
// object in the database onto it, §III-C style: recreate in dependency
// order, re-upload shadowed buffer data, recompile programs, replay
// clSetKernelArg, and mint dummy events for the in-flight enqueues whose
// completions died with the old proxy.
func (c *CheCL) failover() error {
	c.inFailover = true
	defer func() { c.inFailover = false }()
	// A proxy death invalidates an in-flight speculative epoch: the
	// copies the old proxy was producing are gone. Deterministic abort —
	// the next checkpoint stop-drains and reports EpochAborted.
	c.abortEpoch("proxy failover")
	if c.opts.Fault != nil {
		// Recovery must not be re-faulted into a livelock; real faults
		// resume once the rebind is done.
		c.opts.Fault.Suspend()
		defer c.opts.Fault.Resume()
	}

	sw := vtime.NewStopwatch(c.app.Clock())
	c.px.Kill()
	if _, err := c.respawn(); err != nil {
		return fmt.Errorf("rebinding %d objects: %w", c.db.liveObjects(), err)
	}

	recovery := sw.Elapsed()
	c.fstats.Failovers++
	c.fstats.ReplayedCalls += c.px.Client.Stats().Calls
	c.fstats.LastRecovery = recovery
	c.fstats.TotalRecovery += recovery
	return nil
}

// ---- shadow-buffer maintenance ----

// shadow returns m's shadow copy, allocating it zeroed on first touch.
func shadow(m *memRec) []byte {
	if int64(len(m.Data)) != m.Size {
		grown := make([]byte, m.Size)
		copy(grown, m.Data)
		m.Data = grown
	}
	return m.Data
}

// shadowSeed initialises a new buffer's shadow from its creation-time
// host data, if any.
func (c *CheCL) shadowSeed(m *memRec, hostData []byte) {
	if !c.shadowOn() {
		return
	}
	s := shadow(m)
	if hostData != nil {
		copy(s, hostData)
	}
}

// shadowWrite mirrors a host-to-device transfer (or a device read that
// refreshed our knowledge of the region) into the shadow copy.
func (c *CheCL) shadowWrite(m *memRec, offset int64, data []byte) {
	if !c.shadowOn() || offset < 0 || offset > m.Size {
		return
	}
	copy(shadow(m)[offset:], data)
}

// shadowCopy mirrors a device-to-device copy between two shadows.
func (c *CheCL) shadowCopy(src, dst *memRec, srcOff, dstOff, size int64) {
	if !c.shadowOn() {
		return
	}
	if srcOff < 0 || dstOff < 0 || srcOff+size > src.Size || dstOff+size > dst.Size {
		return
	}
	copy(shadow(dst)[dstOff:dstOff+size], shadow(src)[srcOff:srcOff+size])
}

// shadowReadback lists the buffers whose shadows a kernel launch must
// refresh: every buffer it may have written, when buffers are shadowed.
// This per-launch device-to-host traffic is what makes failover lossless.
func (c *CheCL) shadowReadback(written []*memRec) []*memRec {
	if !c.shadowOn() {
		return nil
	}
	return written
}
