// Package client is the typed Go SDK for the cobrad v1 HTTP API: the
// programmatic face of the simulation service, on which cmd/cobractl is
// built.
//
// Every call takes a context and returns typed values (engine.Status,
// engine.Output, process.Info, cluster.NodeInfo) rather than raw JSON;
// non-2xx responses surface as *client.Error carrying the service's
// machine-readable error envelope {code, message, detail}, with
// IsRetryable distinguishing backpressure from caller mistakes.
//
// The call surface mirrors the API one-to-one:
//
//	Processes             GET /v1/processes — discovery
//	Nodes                 GET /v1/nodes — cluster membership
//	Submit/SubmitProcess  POST /v1/jobs
//	SubmitSweep           POST /v1/sweeps
//	Job / Jobs            GET /v1/jobs/{id}, GET /v1/jobs
//	Sweep                 GET /v1/sweeps/{id} — fan-out view
//	Result                GET /v1/jobs/{id}/result
//	Cancel                DELETE /v1/jobs/{id}
//	Follow                GET /v1/jobs/{id}/events — SSE to terminal
//	Health                GET /healthz
//
// On top sit the convenience loops: Wait (poll to terminal), Run
// (submit → Follow → Result), RunSweep (the same for sweeps), and
// Execute, cobractl's batch path, which runs any spec either against a
// remote daemon or on a throwaway in-process engine with identical
// output.
//
//	c, _ := client.New("http://127.0.0.1:8080")
//	out, _, err := c.Run(ctx, "process", engine.ProcessSpec{
//	    Process: "cobra", Graph: "grid:2,33", Trials: 20, Seed: 1,
//	    Params: process.Params{"k": 2.0},
//	}, nil)
package client
