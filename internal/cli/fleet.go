package cli

import (
	"fmt"
	"net/url"
	"strings"
)

// Fleet-plane flag validation shared by the coordinator (spsfleet)
// and its clients, following the serve.go pattern: one code path, one
// error wording.

// ParseBackends parses a -backends flag: a comma-separated list of
// spsd base URLs. Each must be an absolute http or https URL with a
// host; at least one is required.
func ParseBackends(csv string) ([]string, error) {
	var backends []string
	for _, part := range List(csv) {
		u, err := url.Parse(part)
		if err != nil {
			return nil, fmt.Errorf("-backends %q: %v", part, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("-backends %q: want an http:// or https:// base URL", part)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("-backends %q: missing host", part)
		}
		backends = append(backends, strings.TrimRight(part, "/"))
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("-backends: need at least one spsd base URL (e.g. http://localhost:9090)")
	}
	return backends, nil
}

// ValidateScheduler checks a -sched flag against the coordinator's
// scheduler registry.
func ValidateScheduler(name string, names []string) error {
	for _, n := range names {
		if name == n {
			return nil
		}
	}
	return fmt.Errorf("-sched %q: want one of %s", name, strings.Join(names, "|"))
}
