package experiment

import "fmt"

// Backend selects the execution substrate of a run (RunConfig.Backend). The
// orchestrated round protocol is identical either way, so results are
// bit-identical across backends.
type Backend int

const (
	// BackendLocal executes local updates in-process through the engine's
	// zero-alloc worker-pool backend (the default).
	BackendLocal Backend = iota
	// BackendCluster executes each client as a real TCP socket node on
	// loopback behind the engine's cluster backend.
	BackendCluster
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendLocal:
		return "local"
	case BackendCluster:
		return "cluster"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps a command-line name ("local", "cluster") to a Backend.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "local":
		return BackendLocal, nil
	case "cluster":
		return BackendCluster, nil
	default:
		return 0, fmt.Errorf("experiment: unknown backend %q (want local or cluster)", name)
	}
}
