package cli

import (
	"net/http"
	"testing"
)

// The daemons' server must drop clients that never finish their
// headers, and must not cap how long a response may stream.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v: either would cut NDJSON streams", srv.WriteTimeout, srv.ReadTimeout)
	}
}
