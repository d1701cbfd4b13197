package httpwire

import (
	"math"
	"testing"
)

// The sizers are arithmetic; Marshal of the same default header sets is
// the reference they are pinned to.

func marshalledRequestSize(host, path string) int {
	req := Request{Method: "GET", Target: "http://" + host + path, Headers: DefaultRequestHeaders(host)}
	return len(req.Marshal())
}

func marshalledResponseHeadSize(contentType string, contentLength int) int {
	resp := Response{Status: 200, Headers: defaultResponseHeaders(contentType, contentLength)}
	return len(resp.Marshal())
}

// contentTypes are the five values proxy.contentType produces.
var contentTypes = []string{
	"text/html; charset=utf-8", "text/javascript", "text/css", "image/jpeg", "text/plain",
}

func TestRequestSizeEqualsMarshal(t *testing.T) {
	hosts := []string{"", "a", "www.example.com", "cdn7.static.site-12.example"}
	paths := []string{"", "/", "/some/path.html", "/beacon/1", "/a?b=c&d=%20"}
	for _, host := range hosts {
		for _, path := range paths {
			if got, want := RequestSize(host, path), marshalledRequestSize(host, path); got != want {
				t.Errorf("RequestSize(%q, %q) = %d, Marshal is %d bytes", host, path, got, want)
			}
		}
	}
}

func TestResponseHeadSizeEqualsMarshal(t *testing.T) {
	// Lengths on both sides of every digit-count boundary a page object
	// can cross, and the negatives Itoa prints with a sign: the sizer
	// agrees with the codec rather than rejecting them.
	lengths := []int{0, 9, 10, 99, 100, 120, 1 << 21, math.MaxInt32, -1, -10, math.MinInt}
	for _, ct := range append([]string{""}, contentTypes...) {
		for _, n := range lengths {
			if got, want := ResponseHeadSize(ct, n), marshalledResponseHeadSize(ct, n); got != want {
				t.Errorf("ResponseHeadSize(%q, %d) = %d, Marshal is %d bytes", ct, n, got, want)
			}
		}
	}
}

func TestHeadSizeEqualsMarshal(t *testing.T) {
	cases := []*Response{
		{Status: 200},
		{Status: 404, Headers: map[string]string{"Content-Length": "0"}},
		{Status: 999, Headers: map[string]string{"A": "", "": "b"}},
		{Status: -7, Reason: "odd", Body: []byte("body")},
		{Status: 200, Headers: defaultResponseHeaders("image/jpeg", 123456), Body: make([]byte, 10)},
	}
	for _, r := range cases {
		if got, want := r.HeadSize(), len(r.Marshal())-len(r.Body); got != want {
			t.Errorf("%+v: HeadSize %d, Marshal head is %d bytes", r, got, want)
		}
	}
}

func FuzzRequestSize(f *testing.F) {
	f.Add("www.example.com", "/index.html")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, host, path string) {
		if got, want := RequestSize(host, path), marshalledRequestSize(host, path); got != want {
			t.Fatalf("RequestSize(%q, %q) = %d, Marshal is %d bytes", host, path, got, want)
		}
	})
}

func FuzzResponseHeadSize(f *testing.F) {
	f.Add("image/jpeg", 123456)
	f.Add("", 0)
	f.Fuzz(func(t *testing.T, contentType string, contentLength int) {
		got, want := ResponseHeadSize(contentType, contentLength), marshalledResponseHeadSize(contentType, contentLength)
		if got != want {
			t.Fatalf("ResponseHeadSize(%q, %d) = %d, Marshal is %d bytes", contentType, contentLength, got, want)
		}
	})
}
