package proxy

import (
	"fmt"
	"net"

	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
	"checl/internal/vtime"
)

// Remote API proxy — the §V extension: "allowing CheCL wrapper functions
// to communicate with a remote API proxy via TCP/IP sockets" (in the
// spirit of rCUDA and the Barak et al. many-GPU package). The proxy
// process runs on a *different* node than the application, so a node
// without any GPU can still run OpenCL applications against a GPU server.
//
// The transport is a real TCP socket (loopback in the simulation); the
// modelled per-call cost switches from host memcpy to the NIC bandwidth
// plus a network round-trip latency, which is what makes remote
// forwarding so much more expensive for data transfers.

// remoteCallLatency is the one-way network latency added to every
// forwarded call (a LAN round trip is ~100 µs in the paper's era).
const remoteCallLatency = 50 * vtime.Microsecond

// SpawnRemote starts an API proxy for vendor on the server node and
// connects the application process on its own node to it over TCP. The
// application's clock is used for all modelled costs (the RPC is
// synchronous, so the application experiences every delay).
func SpawnRemote(app *proc.Process, server *proc.Node, vendor *ocl.Vendor) (*Proxy, error) {
	if vendor == nil {
		return nil, fmt.Errorf("proxy: no vendor OpenCL implementation to load")
	}
	appNode := app.Node()
	if server == appNode {
		return Spawn(app, vendor)
	}

	child := server.Spawn("remote-api-proxy:" + vendor.PlatformVendor)
	appNode.Clock.Advance(appNode.Spec.ProxyForkCost)

	// The remote runtime charges blocking costs to the application's
	// clock: the RPC is synchronous, so the application waits them out.
	rt := ocl.NewRuntime(vendor, server.Spec, appNode.Clock)
	child.MapDevice()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proxy: listening for remote transport: %w", err)
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
	clientConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("proxy: dialling remote proxy: %w", err)
	}
	serverConn, ok := <-accepted
	ln.Close()
	if !ok {
		clientConn.Close()
		return nil, fmt.Errorf("proxy: remote proxy did not accept")
	}

	p := &Proxy{
		Process: child,
		Runtime: rt,
		server:  NewServer(rt),
	}
	p.conns = append(p.conns, clientConn, serverConn)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.server.ServeConn(serverConn)
	}()

	cost := CostModel{
		CallLatency: remoteCallLatency,
		CopyBW:      appNode.Spec.Inter.NIC, // payloads cross the network
	}
	// No redial: re-establishing a TCP session to a remote node would need
	// a persistent listener there; a dropped remote link surfaces as
	// ErrConnDown and the application falls back to a local failover.
	p.Client = NewClient(ipc.NewConn(clientConn), appNode.Clock, cost)
	return p, nil
}
