package service

import (
	"testing"
	"time"
)

// TestClientBackoffDelay: the exponential backoff doubles from RetryBase
// and stops at RetryMax for every attempt count, including those whose
// uncapped delay would overflow a time.Duration; a Retry-After is
// honoured up to RetryMax.
func TestClientBackoffDelay(t *testing.T) {
	c := &Client{}
	max := c.retryMax()
	for _, tc := range []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 250 * time.Millisecond},
		{4, 0, 4 * time.Second},
		{35, 0, max},
		{36, 0, max},
		{40, 0, max},
		{63, 0, max},
		{64, 0, max},
		{64, 2 * time.Second, 2 * time.Second},
		{0, time.Minute, max},
	} {
		d := c.backoffDelay(tc.attempt, tc.retryAfter)
		if d <= 0 || d > max || d != tc.want {
			t.Errorf("backoffDelay(%d, %v) = %v, want %v within (0, %v]", tc.attempt, tc.retryAfter, d, tc.want, max)
		}
	}
}
