package proxy

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"checl/internal/ocl"
	"checl/internal/proc"
)

// Transport selects the byte stream carrying the app<->proxy RPC.
type Transport int

// Transports. The modelled virtual cost is identical (same-node IPC);
// the choice matters for engineering fidelity — a real CheCL uses Unix
// domain sockets between processes — and lets the benchmark suite
// measure the wall-clock (host) cost difference of the two transports.
const (
	// TransportPipe uses an in-memory synchronous pipe (net.Pipe).
	TransportPipe Transport = iota
	// TransportUnix uses a real Unix domain socket pair.
	TransportUnix
	// TransportRing uses the shared-memory ring (ipc.Ring): lock-free
	// SPSC submission/completion queues polled doorbell-free, typed
	// values crossing by reference and bulk reads landing zero-copy in
	// the caller's buffer. Its modelled cost comes from hw.RingModel
	// instead of the framed IPCCallLatency/Memcpy pair.
	TransportRing
)

func (t Transport) String() string {
	switch t {
	case TransportUnix:
		return "unix-socket"
	case TransportRing:
		return "ring"
	}
	return "pipe"
}

// SpawnWithTransport is Spawn with an explicit transport choice.
func SpawnWithTransport(app *proc.Process, vendor *ocl.Vendor, transport Transport) (*Proxy, error) {
	return SpawnWithOptions(app, vendor, SpawnOpts{Transport: transport})
}

// SpawnWithOptions is Spawn with full control over transport, fault
// injection, per-call deadlines, and the retry policy.
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
		node:    node,
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
	p.Client.SetRetryPolicy(opts.Retry)
	p.Client.SetRedial(p.dial)
	return p, nil
}

// connect builds both endpoints of the chosen transport.
func connect(transport Transport) (appEnd, proxyEnd net.Conn, err error) {
	switch transport {
	case TransportUnix:
		dir, err := os.MkdirTemp("", "checl-proxy-")
		if err != nil {
			return nil, nil, fmt.Errorf("proxy: socket dir: %w", err)
		}
		path := filepath.Join(dir, "api.sock")
		ln, err := net.Listen("unix", path)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("proxy: unix listen: %w", err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- conn
		}()
		client, err := net.Dial("unix", path)
		if err != nil {
			ln.Close()
			os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("proxy: unix dial: %w", err)
		}
		server, ok := <-accepted
		ln.Close()
		os.RemoveAll(dir) // the socket stays connected after unlinking
		if !ok {
			client.Close()
			return nil, nil, fmt.Errorf("proxy: unix accept failed")
		}
		return client, server, nil
	default:
		a, b := net.Pipe()
		return a, b, nil
	}
}
