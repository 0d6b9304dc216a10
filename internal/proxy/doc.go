// Package proxy implements the API proxy of §III-A: a separate process
// that is the only one to touch the OpenCL implementation. The application
// process holds a Client, which implements ocl.API by sending every call
// as a frame of the command stream (batchwire.go) over internal/ipc; the
// proxy process runs a Server wrapping a real ocl.Runtime, with one route
// that executes frames.
//
// Because the proxy — not the application — loads the vendor
// implementation, only the proxy's address space acquires device mappings,
// and the application process stays checkpointable by internal/cpr.
package proxy
