//go:build !linux

package latency

import "time"

func sleep(d time.Duration) { time.Sleep(d) }
