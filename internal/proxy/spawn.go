package proxy

import (
	"fmt"
	"io"
	"net"
	"sync"

	"checl/internal/ipc"
	"checl/internal/ocl"
	"checl/internal/proc"
)

// SpawnOpts configures a spawned proxy beyond the defaults.
type SpawnOpts struct {
	Transport Transport
	Fault     *ipc.FaultInjector // wraps the app-side stream; nil = no injection
}

// Proxy is a running API proxy: a forked child process whose address space
// holds the vendor OpenCL implementation (and therefore device mappings),
// plus the connection the application uses to reach it. The proxy keeps
// its RPC server and spawn configuration so the client can redial a fresh
// connection (same process, same handle space, same dedupe cache) after a
// transport fault.
type Proxy struct {
	Client  *Client
	Process *proc.Process
	Runtime *ocl.Runtime

	server *ipc.Server
	opts   SpawnOpts

	mu     sync.Mutex
	killed bool
	conns  []io.Closer
	wg     sync.WaitGroup
}

// Spawn forks an API proxy child of app, loads the given vendor's OpenCL
// implementation into it, and returns the connected Proxy. The fork and
// library-load cost (the ~0.08 s initialisation the paper measures) is
// charged to the node clock. Loading the vendor library maps the GPU
// devices into the *proxy's* address space — the application process
// stays clean.
func Spawn(app *proc.Process, vendor *ocl.Vendor) (*Proxy, error) {
	return SpawnWithOptions(app, vendor, SpawnOpts{})
}

// dial opens a fresh transport generation to the live proxy process and
// starts serving it: a shared-memory ring, or a framed pipe. It is both the
// initial connect and the Client's redial path after a transport fault.
// Generations tear down (and are redialled) on injected faults; the server
// — and with it the replay-dedupe cache — persists across them.
func (p *Proxy) dial() (ipc.Transport, error) {
	if !p.Process.Alive() {
		return nil, fmt.Errorf("proxy: cannot dial: proxy process is dead")
	}
	var (
		conn  ipc.Transport
		ends  []io.Closer
		serve func()
	)
	if p.opts.Transport == TransportRing {
		ring := ipc.NewRing(p.server, p.opts.Fault)
		conn, ends, serve = ring, []io.Closer{ring}, ring.Serve
	} else {
		appEnd, proxyEnd := net.Pipe()
		var rwc io.ReadWriteCloser = appEnd
		if p.opts.Fault != nil {
			rwc = p.opts.Fault.Wrap(appEnd)
		}
		conn, ends = ipc.NewConn(rwc), []io.Closer{appEnd, proxyEnd}
		serve = func() { _ = p.server.ServeConn(proxyEnd) }
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		for _, c := range ends {
			_ = c.Close()
		}
		return nil, fmt.Errorf("proxy: cannot dial: proxy was killed")
	}
	p.conns = append(p.conns, ends...)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		serve()
	}()
	return conn, nil
}

// Kill terminates the proxy process, closes every transport generation,
// and drains the serve goroutines so no handler races the teardown. It is
// what CheCL does to the old proxy before a DMTCP checkpoint and
// implicitly on restart (the old proxy died with the old incarnation).
func (p *Proxy) Kill() {
	p.crash()
	p.wg.Wait()
}

// crash is the fault injector's CrashServer hook: it kills the process
// and closes the transports but cannot wait for the serve goroutines,
// because it runs on the application's own call path.
func (p *Proxy) crash() {
	for _, c := range p.shutdown() {
		_ = c.Close()
	}
	p.Process.Kill()
}

// shutdown latches the proxy dead and hands back the connections to close.
func (p *Proxy) shutdown() []io.Closer {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killed = true
	conns := p.conns
	p.conns = nil
	return conns
}

// Replayed reports how many mutating calls the proxy answered from its
// request-dedupe cache (retries whose first execution lost only the
// response).
func (p *Proxy) Replayed() int64 { return p.server.ReplayedCalls() }

// Alive reports whether the proxy process is still running.
func (p *Proxy) Alive() bool { return p.Process.Alive() }
