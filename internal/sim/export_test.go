package sim

import "reflect"

// EventType lends the external budget test the type of one event-heap
// entry.
var EventType = reflect.TypeOf(event{})
