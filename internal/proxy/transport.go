package proxy

import (
	"fmt"

	"checl/internal/ocl"
	"checl/internal/proc"
)

// Transport selects the byte stream carrying the app<->proxy RPC.
type Transport int

// Transports: ring (the zero value) or framed.
const (
	// TransportRing uses the shared-memory ring (ipc.Ring): lock-free
	// SPSC submission/completion queues polled doorbell-free, typed
	// values crossing by reference and bulk reads landing zero-copy in
	// the caller's buffer. Its modelled cost comes from hw.RingModel
	// instead of the framed IPCCallLatency/Memcpy pair.
	TransportRing Transport = iota
	// TransportPipe frames calls over an in-memory synchronous pipe
	// (net.Pipe), priced from the node's IPCCallLatency/Memcpy pair. It
	// is the IPC the paper's figures were measured over.
	TransportPipe
)

// SpawnWithOptions is Spawn with a transport choice and fault injection.
func SpawnWithOptions(app *proc.Process, vendor *ocl.Vendor, opts SpawnOpts) (*Proxy, error) {
	if vendor == nil {
		return nil, fmt.Errorf("proxy: no vendor OpenCL implementation to load")
	}
	node := app.Node()
	child := app.Fork("api-proxy:" + vendor.PlatformVendor)
	node.Clock.Advance(node.Spec.ProxyForkCost)

	rt := ocl.NewRuntime(vendor, node.Spec, node.Clock)
	child.MapDevice()

	p := &Proxy{
		Process: child,
		Runtime: rt,
		server:  NewServer(rt),
		opts:    opts,
	}
	if opts.Fault != nil {
		opts.Fault.SetClock(node.Clock)
		opts.Fault.SetCrashServer(p.crash)
	}
	conn, err := p.dial()
	if err != nil {
		child.Kill()
		return nil, err
	}
	cost := CostModel{
		CallLatency: node.Spec.IPCCallLatency,
		CopyBW:      node.Spec.Inter.Memcpy,
	}
	if opts.Transport == TransportRing {
		ring := node.Spec.Ring
		cost.Ring = &ring
	}
	p.Client = NewClient(conn, node.Clock, cost)
	p.Client.redial = p.dial
	return p, nil
}
