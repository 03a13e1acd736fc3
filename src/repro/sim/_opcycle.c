/* Compiled op cycle: the heap event loop and the storage
 * controller's completion -> dispatch path.
 *
 * A line-for-line port of four pure-Python routines, which stay the
 * reference (and the fallback when this file cannot be built):
 *
 *   run()   Simulator.run in repro/sim/kernel.py: heapq.heappop on the
 *           kernel's queue in a loop
 *   pump()  StorageController._pump in repro/sim/controller.py, with
 *           _execute (tracer-ring append and the completion push,
 *           heapq.heappush on the kernel's queue),
 *           _on_op_done (reached from run() when a popped event is a
 *           controller completion) and the non-coalescing admission
 *           drain (StorageController._drain_admissions with
 *           WriteBuffer.push and SimStats.note_host_page_write folded
 *           in; the coalescing case calls the Python method).
 *
 * The module holds no simulation state.  Every read and write goes to
 * the same Python lists, dicts and attributes the Python code uses,
 * and every call into FTL, NAND, host, physics, fault or tracer code
 * goes through the bound methods the controller already holds, so
 * pickled snapshots, tracer installation, power-loss resets and
 * method wrappers see exactly what they see under the Python path.
 * The only module-level objects are the classes and functions
 * registered once by setup().
 *
 * Time arithmetic is done in C doubles in the same operation order as
 * the Python source; the loader compiles with -ffp-contract=off so no
 * multiply-add is fused and every completion time rounds exactly as
 * it does in Python.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Queue-entry slots: [time, priority, seq, fn, args, cancelled, counter] */
#define E_TIME 0
#define E_FN 3
#define E_ARGS 4
#define E_CANCELLED 5
#define E_COUNTER 6
#define E_WIDTH 7

/* Registered by setup(); NULL until then. */
static PyObject *on_op_done_func;   /* StorageController._on_op_done */
static PyObject *sim_push_func;     /* Simulator._push */
static PyObject *kind_program;      /* OpKind.PROGRAM */
static PyObject *kind_read;         /* OpKind.READ */
static PyTypeObject *buffered_write_type;

/* Created at module init. */
static PyObject *heappush, *heappop;
static PyObject *empty_tuple;
static PyObject *int_zero, *int_one, *int_minus_one;
static PyObject *kind_codes[3];     /* op-ring kind codes 0, 1, 2 */

/* Interned attribute names. */
static PyObject *s_dict, *s_now, *s_processed, *s_queue, *s_buckets,
    *s_seq, *s_cancelled, *s_pumping, *s_idle,
    *s_read_queues, *s_ftl_next_op, *s_admissions, *s_write_buffer,
    *s_capacity, *s_live, *s_sim, *s_queued_reads, *s_ftl,
    *s_wants_background_gc, *s_background_op, *s_next_read_op,
    *s_kind, *s_addr, *s_data, *s_tag, *s_lpn, *s_on_complete,
    *s_chips_per_channel, *s_channel_free, *s_t_transfer,
    *s_array_program, *s_array_read, *s_array_erase, *s_channel,
    *s_chip, *s_block, *s_page, *s_trace, *s_op_raw, *s_op_limit,
    *s_trim, *s_busy, *s_in_flight, *s_on_op_done, *s_sim_push,
    *s_injector, *s_on_op_complete, *s_handle_fault, *s_physics,
    *s_on_read, *s_note_physics_read, *s_note_program, *s_note_erase,
    *s_pages_remaining, *s_complete_request, *s_coalesce,
    *s_drain_admissions, *s_fifo, *s_resident, *s_npages,
    *s_enqueued_at, *s_request, *s_append, *s_popleft, *s_stats,
    *s_written_pages, *s_write_bandwidth, *s_window, *s_page_size,
    *s_host, *s_extend, *s_pop, *s_sample_kw;

/* ------------------------------------------------------------------ */
/* attribute access                                                    */

/* Instance-dict lookup with the generic getattr as fallback (class
 * attributes such as StorageController._trace).  New reference. */
static PyObject *
dget(PyObject *d, PyObject *obj, PyObject *name)
{
    PyObject *v = PyDict_GetItemWithError(d, name);
    if (v != NULL) {
        Py_INCREF(v);
        return v;
    }
    if (PyErr_Occurred())
        return NULL;
    return PyObject_GetAttr(obj, name);
}

static PyObject *
instance_dict(PyObject *obj)
{
    PyObject *d = PyObject_GetAttr(obj, s_dict);
    if (d != NULL && !PyDict_Check(d)) {
        Py_DECREF(d);
        PyErr_SetString(PyExc_TypeError, "__dict__ is not a dict");
        return NULL;
    }
    return d;
}

static int
dget_ssize(PyObject *d, PyObject *obj, PyObject *name, Py_ssize_t *out)
{
    PyObject *v = dget(d, obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsSsize_t(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
dget_double(PyObject *d, PyObject *obj, PyObject *name, double *out)
{
    PyObject *v = dget(d, obj, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
dset_ssize(PyObject *d, PyObject *name, Py_ssize_t value)
{
    PyObject *v = PyLong_FromSsize_t(value);
    if (v == NULL)
        return -1;
    int r = PyDict_SetItem(d, name, v);
    Py_DECREF(v);
    return r;
}

static int
attr_ssize(PyObject *obj, PyObject *name, Py_ssize_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsSsize_t(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
set_attr_ssize(PyObject *obj, PyObject *name, Py_ssize_t value)
{
    PyObject *v = PyLong_FromSsize_t(value);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

/* ``obj.<name>[key] = value`` with ``obj.<name>`` read from ``d``. */
static int
dset_item(PyObject *d, PyObject *obj, PyObject *name, PyObject *key,
          PyObject *value)
{
    PyObject *container = dget(d, obj, name);
    if (container == NULL)
        return -1;
    int r = PyObject_SetItem(container, key, value);
    Py_DECREF(container);
    return r;
}

static PyObject *
call_method(PyObject *obj, PyObject *name, PyObject *const *rest,
            size_t nrest)
{
    PyObject *args[6];
    args[0] = obj;
    for (size_t i = 0; i < nrest; i++)
        args[i + 1] = rest[i];
    return PyObject_VectorcallMethod(name, args, nrest + 1, NULL);
}

/* Truth value of a method call's result: 1, 0, or -1 on error. */
static int
call_truth(PyObject *result)
{
    if (result == NULL)
        return -1;
    int r = PyObject_IsTrue(result);
    Py_DECREF(result);
    return r;
}

/* ------------------------------------------------------------------ */
/* ordering                                                            */

/* bisect over a sorted list of ints (the controller's idle-chip list);
 * right=1 is bisect_right, right=0 bisect_left. */
static Py_ssize_t
bisect_int(PyObject *list, PyObject *x, int right)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(list);
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        PyObject *item = PyList_GET_ITEM(list, mid);
        int go_left;
        if (PyLong_CheckExact(item) && PyLong_CheckExact(x)) {
            long a = PyLong_AsLong(x), b = PyLong_AsLong(item);
            if ((a == -1 || b == -1) && PyErr_Occurred())
                return -1;
            go_left = right ? (a < b) : !(b < a);
        }
        else {
            Py_INCREF(item);
            go_left = right ? PyObject_RichCompareBool(x, item, Py_LT)
                            : PyObject_RichCompareBool(item, x, Py_LT);
            Py_DECREF(item);
            if (go_left < 0)
                return -1;
            if (!right)
                go_left = !go_left;
        }
        if (go_left)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* controller op cycle                                                 */

static int pump(PyObject *ctrl);

/* StorageController._execute */
static int
execute(PyObject *cd, PyObject *ctrl, PyObject *chip, PyObject *op,
        PyObject *read_request)
{
    int rc = -1;
    PyObject *sim = NULL, *now_obj = NULL, *kind = NULL, *addr = NULL,
             *res = NULL, *done_obj = NULL, *trace = NULL,
             *entry = NULL, *args = NULL;
    double now, total, t_transfer;
    Py_ssize_t chip_id = PyLong_AsSsize_t(chip);
    if (chip_id == -1 && PyErr_Occurred())
        return -1;

    sim = dget(cd, ctrl, s_sim);
    if (sim == NULL)
        goto done;
    now_obj = PyObject_GetAttr(sim, s_now);
    if (now_obj == NULL)
        goto done;
    now = PyFloat_AsDouble(now_obj);
    if (now == -1.0 && PyErr_Occurred())
        goto done;
    kind = PyObject_GetAttr(op, s_kind);
    if (kind == NULL)
        goto done;
    addr = PyObject_GetAttr(op, s_addr);
    if (addr == NULL)
        goto done;
    if (kind == kind_program || kind == kind_read) {
        Py_ssize_t per_channel;
        double start;
        if (dget_ssize(cd, ctrl, s_chips_per_channel, &per_channel) < 0)
            goto done;
        Py_ssize_t channel = chip_id / per_channel;
        PyObject *channel_free = dget(cd, ctrl, s_channel_free);
        if (channel_free == NULL)
            goto done;
        PyObject *slot = PySequence_GetItem(channel_free, channel);
        if (slot == NULL) {
            Py_DECREF(channel_free);
            goto done;
        }
        start = PyFloat_AsDouble(slot);
        Py_DECREF(slot);
        if (start == -1.0 && PyErr_Occurred()) {
            Py_DECREF(channel_free);
            goto done;
        }
        if (start < now)
            start = now;
        if (dget_double(cd, ctrl, s_t_transfer, &t_transfer) < 0) {
            Py_DECREF(channel_free);
            goto done;
        }
        PyObject *busy_until = PyFloat_FromDouble(start + t_transfer);
        int r = busy_until == NULL ? -1
            : PySequence_SetItem(channel_free, channel, busy_until);
        Py_XDECREF(busy_until);
        Py_DECREF(channel_free);
        if (r < 0)
            goto done;
        double latency;
        if (kind == kind_program) {
            PyObject *fn = dget(cd, ctrl, s_array_program);
            PyObject *data = PyObject_GetAttr(op, s_data);
            if (fn != NULL && data != NULL) {
                PyObject *cargs[2] = {addr, data};
                res = PyObject_Vectorcall(fn, cargs, 2, NULL);
            }
            Py_XDECREF(fn);
            Py_XDECREF(data);
            if (res == NULL)
                goto done;
            latency = PyFloat_AsDouble(res);
        }
        else {
            PyObject *fn = dget(cd, ctrl, s_array_read);
            if (fn == NULL)
                goto done;
            res = PyObject_Vectorcall(fn, &addr, 1, NULL);
            Py_DECREF(fn);
            if (res == NULL)
                goto done;
            PyObject *lat = PySequence_GetItem(res, 1);
            if (lat == NULL)
                goto done;
            latency = PyFloat_AsDouble(lat);
            Py_DECREF(lat);
        }
        if (latency == -1.0 && PyErr_Occurred())
            goto done;
        total = (start - now) + t_transfer + latency;
    }
    else {
        PyObject *fn = dget(cd, ctrl, s_array_erase);
        PyObject *a0 = PyObject_GetAttr(addr, s_channel);
        PyObject *a1 = PyObject_GetAttr(addr, s_chip);
        PyObject *a2 = PyObject_GetAttr(addr, s_block);
        if (fn != NULL && a0 != NULL && a1 != NULL && a2 != NULL) {
            PyObject *cargs[3] = {a0, a1, a2};
            res = PyObject_Vectorcall(fn, cargs, 3, NULL);
        }
        Py_XDECREF(fn);
        Py_XDECREF(a0);
        Py_XDECREF(a1);
        Py_XDECREF(a2);
        if (res == NULL)
            goto done;
        total = PyFloat_AsDouble(res);
        if (total == -1.0 && PyErr_Occurred())
            goto done;
    }
    done_obj = PyFloat_FromDouble(now + total);
    if (done_obj == NULL)
        goto done;

    trace = dget(cd, ctrl, s_trace);
    if (trace == NULL)
        goto done;
    if (trace != Py_None) {
        /* one flat record of eight scalars on the tracer's op ring */
        PyObject *raw = PyObject_GetAttr(trace, s_op_raw);
        if (raw == NULL)
            goto done;
        PyObject *tag = PyObject_GetAttr(op, s_tag);
        PyObject *lpn = PyObject_GetAttr(op, s_lpn);
        PyObject *block = PySequence_GetItem(addr, 2);
        PyObject *page = PySequence_GetItem(addr, 3);
        PyObject *code =
            kind_codes[kind == kind_program ? 0 : kind == kind_read ? 1 : 2];
        int r = -1;
        if (tag && lpn && block && page) {
            PyObject *record = PyTuple_Pack(
                8, now_obj, done_obj, chip, code, tag, block, page,
                lpn == Py_None ? int_minus_one : lpn);
            if (record != NULL) {
                if (PyList_CheckExact(raw)) {
                    Py_ssize_t n = PyList_GET_SIZE(raw);
                    r = PyList_SetSlice(raw, n, n, record);
                }
                else {
                    PyObject *x = call_method(raw, s_extend, &record, 1);
                    r = x == NULL ? -1 : 0;
                    Py_XDECREF(x);
                }
                Py_DECREF(record);
            }
        }
        Py_XDECREF(tag);
        Py_XDECREF(lpn);
        Py_XDECREF(block);
        Py_XDECREF(page);
        if (r == 0) {
            Py_ssize_t n = PyObject_Size(raw);
            double limit;
            PyObject *lim = n < 0 ? NULL
                : PyObject_GetAttr(trace, s_op_limit);
            if (lim == NULL) {
                r = -1;
            }
            else {
                limit = PyFloat_AsDouble(lim);
                Py_DECREF(lim);
                if (limit == -1.0 && PyErr_Occurred())
                    r = -1;
                else if ((double)n >= limit)
                    r = call_truth(call_method(trace, s_trim, NULL, 0))
                        < 0 ? -1 : 0;
            }
        }
        Py_DECREF(raw);
        if (r < 0)
            goto done;
    }

    if (dset_item(cd, ctrl, s_busy, chip, Py_True) < 0)
        goto done;
    {
        PyObject *idle = dget(cd, ctrl, s_idle);
        if (idle == NULL)
            goto done;
        int r = -1;
        if (PyList_Check(idle)) {
            Py_ssize_t i = bisect_int(idle, chip, 0);
            if (i >= 0)
                r = PySequence_DelItem(idle, i);
        }
        else {
            PyErr_SetString(PyExc_TypeError, "idle chips must be a list");
        }
        Py_DECREF(idle);
        if (r < 0)
            goto done;
    }
    if (dset_item(cd, ctrl, s_in_flight, chip, op) < 0)
        goto done;

    /* [done, 0, next(sim._seq), self._on_op_done,
     *  (chip_id, op, read_request), False, sim._cancelled] */
    {
        PyObject *seq_iter = PyObject_GetAttr(sim, s_seq);
        if (seq_iter == NULL)
            goto done;
        PyObject *seq = PyIter_Next(seq_iter);
        Py_DECREF(seq_iter);
        if (seq == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetNone(PyExc_StopIteration);
            goto done;
        }
        PyObject *fn = PyObject_GetAttr(ctrl, s_on_op_done);
        PyObject *cell = PyObject_GetAttr(sim, s_cancelled);
        args = PyTuple_Pack(3, chip, op, read_request);
        entry = fn == NULL || cell == NULL || args == NULL ? NULL
            : PyList_New(E_WIDTH);
        if (entry == NULL) {
            Py_DECREF(seq);
            Py_XDECREF(fn);
            Py_XDECREF(cell);
            goto done;
        }
        Py_INCREF(done_obj);
        Py_INCREF(int_zero);
        Py_INCREF(args);
        Py_INCREF(Py_False);
        PyList_SET_ITEM(entry, 0, done_obj);
        PyList_SET_ITEM(entry, 1, int_zero);
        PyList_SET_ITEM(entry, 2, seq);
        PyList_SET_ITEM(entry, E_FN, fn);
        PyList_SET_ITEM(entry, E_ARGS, args);
        PyList_SET_ITEM(entry, E_CANCELLED, Py_False);
        PyList_SET_ITEM(entry, E_COUNTER, cell);
    }
    {
        PyObject *push = dget(cd, ctrl, s_sim_push);
        if (push == NULL)
            goto done;
        int r;
        if (PyMethod_Check(push)
                && PyMethod_GET_FUNCTION(push) == sim_push_func) {
            /* Simulator._push: heappush(sim._queue, entry) */
            PyObject *target = PyMethod_GET_SELF(push);
            PyObject *td = instance_dict(target);
            PyObject *queue = td == NULL ? NULL : dget(td, target, s_queue);
            PyObject *cargs[2] = {queue, entry};
            PyObject *x = queue == NULL ? NULL
                : PyObject_Vectorcall(heappush, cargs, 2, NULL);
            r = x == NULL ? -1 : 0;
            Py_XDECREF(x);
            Py_XDECREF(queue);
            Py_XDECREF(td);
        }
        else {
            PyObject *x = PyObject_CallOneArg(push, entry);
            r = x == NULL ? -1 : 0;
            Py_XDECREF(x);
        }
        Py_DECREF(push);
        if (r < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(sim);
    Py_XDECREF(now_obj);
    Py_XDECREF(kind);
    Py_XDECREF(addr);
    Py_XDECREF(res);
    Py_XDECREF(done_obj);
    Py_XDECREF(trace);
    Py_XDECREF(entry);
    Py_XDECREF(args);
    return rc;
}

/* StorageController._complete_read_page */
static int
complete_read_page(PyObject *ctrl, PyObject *request)
{
    Py_ssize_t remaining;
    if (attr_ssize(request, s_pages_remaining, &remaining) < 0)
        return -1;
    if (set_attr_ssize(request, s_pages_remaining, remaining - 1) < 0)
        return -1;
    if (attr_ssize(request, s_pages_remaining, &remaining) < 0)
        return -1;
    if (remaining == 0) {
        PyObject *x = call_method(ctrl, s_complete_request, &request, 1);
        if (x == NULL)
            return -1;
        Py_DECREF(x);
    }
    return 0;
}

/* StorageController._on_op_done */
static int
on_op_done(PyObject *ctrl, PyObject *args)
{
    PyObject *chip = PyTuple_GET_ITEM(args, 0);
    PyObject *op = PyTuple_GET_ITEM(args, 1);
    PyObject *read_request = PyTuple_GET_ITEM(args, 2);
    PyObject *cd = instance_dict(ctrl);
    PyObject *sim = NULL, *now = NULL, *x = NULL;
    int rc = -1;
    if (cd == NULL)
        return -1;

    x = dget(cd, ctrl, s_injector);
    if (x == NULL)
        goto done;
    if (x != Py_None) {
        PyObject *cargs[2] = {chip, op};
        PyObject *fault = call_method(x, s_on_op_complete, cargs, 2);
        if (fault == NULL)
            goto done;
        if (fault != Py_None) {
            PyObject *hargs[4] = {chip, op, read_request, fault};
            int deferred = call_truth(
                call_method(ctrl, s_handle_fault, hargs, 4));
            Py_DECREF(fault);
            if (deferred < 0)
                goto done;
            if (deferred) {
                rc = 0;
                goto done;
            }
        }
        else {
            Py_DECREF(fault);
        }
    }
    Py_CLEAR(x);

    sim = dget(cd, ctrl, s_sim);
    if (sim == NULL)
        goto done;
    x = dget(cd, ctrl, s_physics);
    if (x == NULL)
        goto done;
    if (x != Py_None) {
        PyObject *kind = PyObject_GetAttr(op, s_kind);
        PyObject *addr = PyObject_GetAttr(op, s_addr);
        PyObject *block = addr ? PyObject_GetAttr(addr, s_block) : NULL;
        int r = -1;
        now = PyObject_GetAttr(sim, s_now);
        if (kind && block && now) {
            if (kind == kind_read) {
                PyObject *page = PyObject_GetAttr(addr, s_page);
                PyObject *tag = PyObject_GetAttr(op, s_tag);
                int host = tag == NULL ? -1
                    : PyObject_RichCompareBool(tag, s_host, Py_EQ);
                if (page && host >= 0) {
                    PyObject *cargs[6] = {x, chip, block, page, now,
                                          host ? Py_True : Py_False};
                    PyObject *outcome = PyObject_VectorcallMethod(
                        s_on_read, cargs, 5, s_sample_kw);
                    if (outcome != NULL) {
                        if (outcome == Py_None) {
                            r = 0;
                        }
                        else {
                            PyObject *nargs[4] = {chip, op, read_request,
                                                  outcome};
                            r = call_truth(call_method(
                                ctrl, s_note_physics_read, nargs, 4));
                            if (r == 1) {
                                /* ladder in progress: the chip stays
                                 * busy until _finish_read_recovery */
                                Py_DECREF(outcome);
                                Py_XDECREF(page);
                                Py_XDECREF(tag);
                                Py_XDECREF(kind);
                                Py_XDECREF(addr);
                                Py_XDECREF(block);
                                rc = 0;
                                goto done;
                            }
                        }
                        Py_DECREF(outcome);
                    }
                }
                Py_XDECREF(page);
                Py_XDECREF(tag);
            }
            else if (kind == kind_program) {
                PyObject *page = PyObject_GetAttr(addr, s_page);
                if (page) {
                    PyObject *cargs[4] = {chip, block, page, now};
                    r = call_truth(call_method(x, s_note_program, cargs,
                                               4)) < 0 ? -1 : 0;
                    Py_DECREF(page);
                }
            }
            else {
                PyObject *cargs[2] = {chip, block};
                r = call_truth(call_method(x, s_note_erase, cargs, 2))
                    < 0 ? -1 : 0;
            }
        }
        Py_XDECREF(kind);
        Py_XDECREF(addr);
        Py_XDECREF(block);
        Py_CLEAR(now);
        if (r < 0)
            goto done;
    }
    Py_CLEAR(x);

    if (dset_item(cd, ctrl, s_busy, chip, Py_False) < 0)
        goto done;
    {
        PyObject *idle = dget(cd, ctrl, s_idle);
        if (idle == NULL)
            goto done;
        int r = -1;
        if (PyList_Check(idle)) {
            Py_ssize_t i = bisect_int(idle, chip, 1);
            if (i >= 0)
                r = PyList_Insert(idle, i, chip);
        }
        else {
            PyErr_SetString(PyExc_TypeError, "idle chips must be a list");
        }
        Py_DECREF(idle);
        if (r < 0)
            goto done;
    }
    {
        PyObject *in_flight = dget(cd, ctrl, s_in_flight);
        if (in_flight == NULL)
            goto done;
        int r = 0;
        if (PyDict_CheckExact(in_flight)) {
            PyObject *cur = PyDict_GetItemWithError(in_flight, chip);
            if (cur != NULL)
                r = PyDict_DelItem(in_flight, chip);
            else if (PyErr_Occurred())
                r = -1;
        }
        else {
            PyObject *cargs[2] = {chip, Py_None};
            PyObject *y = call_method(in_flight, s_pop, cargs, 2);
            r = y == NULL ? -1 : 0;
            Py_XDECREF(y);
        }
        Py_DECREF(in_flight);
        if (r < 0)
            goto done;
    }
    x = PyObject_GetAttr(op, s_on_complete);
    if (x == NULL)
        goto done;
    if (x != Py_None) {
        now = PyObject_GetAttr(sim, s_now);
        if (now == NULL)
            goto done;
        PyObject *y = PyObject_CallOneArg(x, now);
        if (y == NULL)
            goto done;
        Py_DECREF(y);
    }
    if (read_request != Py_None
            && complete_read_page(ctrl, read_request) < 0)
        goto done;
    rc = pump(ctrl);
done:
    Py_XDECREF(x);
    Py_XDECREF(now);
    Py_XDECREF(sim);
    Py_DECREF(cd);
    return rc;
}

/* StorageController._drain_admissions for a non-coalescing buffer,
 * with WriteBuffer.push and SimStats.note_host_page_write folded in:
 * without coalescing a push never goes stale, and the clock is fixed
 * for the whole drain, so every admitted page lands in one bandwidth
 * bucket.  Returns 1 on progress, 0 without, -1 on error. */
static int
drain_admissions(PyObject *cd, PyObject *ctrl, PyObject *buffer,
                 PyObject *admissions)
{
    int rc = -1;
    PyObject *sim = NULL, *now = NULL, *fifo = NULL, *resident = NULL,
             *request = NULL, *entry = NULL, *stats = NULL,
             *bandwidth = NULL, *buckets = NULL;
    Py_ssize_t capacity, live, pushed = 0;

    int coalesce = call_truth(PyObject_GetAttr(buffer, s_coalesce));
    if (coalesce < 0)
        return -1;
    if (coalesce)
        return call_truth(call_method(ctrl, s_drain_admissions, NULL, 0));

    if (attr_ssize(buffer, s_capacity, &capacity) < 0)
        return -1;
    sim = dget(cd, ctrl, s_sim);
    if (sim == NULL)
        goto done;
    now = PyObject_GetAttr(sim, s_now);
    fifo = PyObject_GetAttr(buffer, s_fifo);
    resident = PyObject_GetAttr(buffer, s_resident);
    if (now == NULL || fifo == NULL || resident == NULL)
        goto done;
    if (attr_ssize(buffer, s_live, &live) < 0)
        goto done;
    for (;;) {
        Py_ssize_t queued = PyObject_Size(admissions);
        if (queued < 0)
            goto done;
        if (!queued || live >= capacity)
            break;
        request = PySequence_GetItem(admissions, 0);
        if (request == NULL)
            goto done;
        Py_ssize_t remaining, lpn, npages;
        if (attr_ssize(request, s_pages_remaining, &remaining) < 0
                || attr_ssize(request, s_lpn, &lpn) < 0
                || attr_ssize(request, s_npages, &npages) < 0)
            goto done;
        Py_ssize_t next_lpn = lpn + npages - remaining;
        while (remaining > 0 && live < capacity) {
            /* BufferedWrite via object.__new__ plus slot stores, as
             * the dataclass __init__ would set them */
            entry = PyBaseObject_Type.tp_new(buffered_write_type,
                                             empty_tuple, NULL);
            if (entry == NULL)
                goto done;
            PyObject *key = PyLong_FromSsize_t(next_lpn);
            if (key == NULL)
                goto done;
            int r = PyObject_SetAttr(entry, s_lpn, key);
            if (r == 0)
                r = PyObject_SetAttr(entry, s_enqueued_at, now);
            if (r == 0)
                r = PyObject_SetAttr(entry, s_request, request);
            if (r == 0) {
                PyObject *x = call_method(fifo, s_append, &entry, 1);
                r = x == NULL ? -1 : 0;
                Py_XDECREF(x);
            }
            if (r == 0) {
                PyObject *count = PyDict_GetItemWithError(resident, key);
                if (count == NULL && PyErr_Occurred()) {
                    r = -1;
                }
                else {
                    Py_ssize_t c = 0;
                    if (count != NULL) {
                        c = PyLong_AsSsize_t(count);
                        if (c == -1 && PyErr_Occurred())
                            r = -1;
                    }
                    if (r == 0) {
                        PyObject *value = PyLong_FromSsize_t(c + 1);
                        r = value == NULL ? -1
                            : PyDict_SetItem(resident, key, value);
                        Py_XDECREF(value);
                    }
                }
            }
            Py_DECREF(key);
            Py_CLEAR(entry);
            if (r < 0)
                goto done;
            next_lpn++;
            live++;
            remaining--;
            pushed++;
        }
        if (set_attr_ssize(request, s_pages_remaining, remaining) < 0)
            goto done;
        if (remaining > 0)
            break;
        PyObject *x = call_method(admissions, s_popleft, NULL, 0);
        if (x == NULL)
            goto done;
        Py_DECREF(x);
        /* publish the level before the completion callback runs
         * (hosts may submit follow-on requests from it) */
        if (set_attr_ssize(buffer, s_live, live) < 0)
            goto done;
        x = call_method(ctrl, s_complete_request, &request, 1);
        if (x == NULL)
            goto done;
        Py_DECREF(x);
        Py_CLEAR(request);
        if (attr_ssize(buffer, s_live, &live) < 0)
            goto done;
    }
    if (set_attr_ssize(buffer, s_live, live) < 0)
        goto done;
    if (!pushed) {
        rc = 0;
        goto done;
    }
    {
        Py_ssize_t written, page_size;
        double window;
        stats = dget(cd, ctrl, s_stats);
        if (stats == NULL || attr_ssize(stats, s_written_pages,
                                        &written) < 0)
            goto done;
        if (set_attr_ssize(stats, s_written_pages, written + pushed) < 0)
            goto done;
        bandwidth = PyObject_GetAttr(stats, s_write_bandwidth);
        if (bandwidth == NULL)
            goto done;
        buckets = PyObject_GetAttr(bandwidth, s_buckets);
        PyObject *w = PyObject_GetAttr(bandwidth, s_window);
        if (buckets == NULL || w == NULL) {
            Py_XDECREF(w);
            goto done;
        }
        window = PyFloat_AsDouble(w);
        Py_DECREF(w);
        if (window == -1.0 && PyErr_Occurred())
            goto done;
        if (attr_ssize(stats, s_page_size, &page_size) < 0)
            goto done;
        double t = PyFloat_AsDouble(now);
        if (t == -1.0 && PyErr_Occurred())
            goto done;
        PyObject *key = PyLong_FromDouble(t / window);
        if (key == NULL)
            goto done;
        PyObject *have = PyDict_GetItemWithError(buckets, key);
        Py_ssize_t nbytes = 0;
        int r = 0;
        if (have != NULL) {
            nbytes = PyLong_AsSsize_t(have);
            if (nbytes == -1 && PyErr_Occurred())
                r = -1;
        }
        else if (PyErr_Occurred()) {
            r = -1;
        }
        if (r == 0) {
            PyObject *value = PyLong_FromSsize_t(nbytes
                                                 + pushed * page_size);
            r = value == NULL ? -1 : PyDict_SetItem(buckets, key, value);
            Py_XDECREF(value);
        }
        Py_DECREF(key);
        if (r < 0)
            goto done;
    }
    rc = 1;
done:
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(fifo);
    Py_XDECREF(resident);
    Py_XDECREF(request);
    Py_XDECREF(entry);
    Py_XDECREF(stats);
    Py_XDECREF(bandwidth);
    Py_XDECREF(buckets);
    return rc;
}

/* The body of StorageController._pump inside its reentrancy guard. */
static int
pump_body(PyObject *cd, PyObject *ctrl)
{
    int rc = -1;
    PyObject *idle = NULL, *read_queues = NULL, *ftl_next_op = NULL,
             *admissions = NULL, *buffer = NULL, *sim = NULL,
             *now = NULL, *chips = NULL;
    Py_ssize_t capacity;

    idle = dget(cd, ctrl, s_idle);
    read_queues = dget(cd, ctrl, s_read_queues);
    ftl_next_op = dget(cd, ctrl, s_ftl_next_op);
    admissions = dget(cd, ctrl, s_admissions);
    buffer = dget(cd, ctrl, s_write_buffer);
    if (!idle || !read_queues || !ftl_next_op || !admissions || !buffer)
        goto done;
    if (attr_ssize(buffer, s_capacity, &capacity) < 0)
        goto done;
    /* the clock cannot advance mid-pump: hoist it */
    sim = dget(cd, ctrl, s_sim);
    if (sim == NULL)
        goto done;
    now = PyObject_GetAttr(sim, s_now);
    if (now == NULL)
        goto done;

    int progress = 1;
    while (progress) {
        Py_ssize_t queued = PyObject_Size(admissions), live;
        if (queued < 0)
            goto done;
        progress = 0;
        if (queued) {
            if (attr_ssize(buffer, s_live, &live) < 0)
                goto done;
            if (live < capacity) {
                progress = drain_admissions(cd, ctrl, buffer, admissions);
                if (progress < 0)
                    goto done;
            }
        }
        /* snapshot: execute prunes the idle list while we iterate */
        chips = PySequence_List(idle);
        if (chips == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(chips); i++) {
            PyObject *chip = PyList_GET_ITEM(chips, i);
            PyObject *op = NULL, *read_request = Py_None;
            PyObject *pair = NULL;
            Py_ssize_t chip_id = PyLong_AsSsize_t(chip);
            if (chip_id == -1 && PyErr_Occurred())
                goto done;
            PyObject *queue = PySequence_GetItem(read_queues, chip_id);
            if (queue == NULL)
                goto done;
            Py_ssize_t pending = PyObject_Size(queue);
            Py_DECREF(queue);
            if (pending < 0)
                goto done;
            if (pending) {
                pair = call_method(ctrl, s_next_read_op, &chip, 1);
                if (pair == NULL)
                    goto done;
                if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
                    Py_DECREF(pair);
                    PyErr_SetString(PyExc_TypeError,
                                    "_next_read_op must return a pair");
                    goto done;
                }
                op = PyTuple_GET_ITEM(pair, 0);
                read_request = PyTuple_GET_ITEM(pair, 1);
                Py_INCREF(op);
            }
            else {
                op = Py_None;
                Py_INCREF(op);
            }
            if (op == Py_None) {
                Py_DECREF(op);
                PyObject *cargs[2] = {chip, now};
                op = PyObject_Vectorcall(ftl_next_op, cargs, 2, NULL);
                if (op == NULL) {
                    Py_XDECREF(pair);
                    goto done;
                }
            }
            if (op == Py_None) {
                /* host_idle(), inlined */
                Py_ssize_t queued_reads, live;
                int host_busy;
                queued = PyObject_Size(admissions);
                if (queued < 0)
                    goto fail_op;
                host_busy = queued != 0;
                if (!host_busy) {
                    if (dget_ssize(cd, ctrl, s_queued_reads,
                                   &queued_reads) < 0)
                        goto fail_op;
                    host_busy = queued_reads != 0;
                }
                if (!host_busy) {
                    if (attr_ssize(buffer, s_live, &live) < 0)
                        goto fail_op;
                    host_busy = live != 0;
                }
                if (!host_busy) {
                    PyObject *ftl = dget(cd, ctrl, s_ftl);
                    if (ftl == NULL)
                        goto fail_op;
                    int wants = call_truth(call_method(
                        ftl, s_wants_background_gc, &chip, 1));
                    if (wants > 0) {
                        PyObject *cargs[2] = {chip, now};
                        Py_DECREF(op);
                        op = call_method(ftl, s_background_op, cargs, 2);
                    }
                    Py_DECREF(ftl);
                    if (wants < 0 || op == NULL)
                        goto fail_op;
                }
            }
            if (op != Py_None) {
                if (execute(cd, ctrl, chip, op, read_request) < 0)
                    goto fail_op;
                progress = 1;
            }
            Py_DECREF(op);
            Py_XDECREF(pair);
            continue;
fail_op:
            Py_XDECREF(op);
            Py_XDECREF(pair);
            goto done;
        }
        Py_CLEAR(chips);
    }
    rc = 0;
done:
    Py_XDECREF(idle);
    Py_XDECREF(read_queues);
    Py_XDECREF(ftl_next_op);
    Py_XDECREF(admissions);
    Py_XDECREF(buffer);
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(chips);
    return rc;
}

/* StorageController._pump: drive admissions and chip dispatch to a
 * fixed point, guarded against reentry. */
static int
pump(PyObject *ctrl)
{
    PyObject *cd = instance_dict(ctrl);
    if (cd == NULL)
        return -1;
    PyObject *pumping = dget(cd, ctrl, s_pumping);
    if (pumping == NULL) {
        Py_DECREF(cd);
        return -1;
    }
    int busy = PyObject_IsTrue(pumping);
    Py_DECREF(pumping);
    if (busy != 0) {
        Py_DECREF(cd);
        return busy < 0 ? -1 : 0;
    }
    if (PyDict_SetItem(cd, s_pumping, Py_True) < 0) {
        Py_DECREF(cd);
        return -1;
    }
    int rc = pump_body(cd, ctrl);
    /* the finally clause: clear the guard, keeping a pending error */
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (PyDict_SetItem(cd, s_pumping, Py_False) < 0) {
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(tb);
        rc = -1;
    }
    else {
        PyErr_Restore(type, value, tb);
    }
    Py_DECREF(cd);
    return rc;
}

/* ------------------------------------------------------------------ */
/* event loop                                                          */

/* Fire one popped entry: a controller completion runs the compiled
 * cycle, anything else is called as ``fn(*args)``. */
static int
fire(PyObject *entry)
{
    PyObject *fn = PyList_GET_ITEM(entry, E_FN);
    PyObject *args = PyList_GET_ITEM(entry, E_ARGS);
    int rc;
    Py_INCREF(fn);
    Py_INCREF(args);
    if (on_op_done_func != NULL && PyMethod_Check(fn)
            && PyMethod_GET_FUNCTION(fn) == on_op_done_func
            && PyTuple_CheckExact(args) && PyTuple_GET_SIZE(args) == 3) {
        rc = on_op_done(PyMethod_GET_SELF(fn), args);
    }
    else {
        PyObject *tuple = PyTuple_Check(args) ? (Py_INCREF(args), args)
                                              : PySequence_Tuple(args);
        PyObject *res = tuple == NULL ? NULL
                                      : PyObject_Call(fn, tuple, NULL);
        Py_XDECREF(tuple);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(fn);
    Py_DECREF(args);
    return rc;
}

/* Collect a cancelled entry: ``entry[_COUNTER][0] -= 1`` then detach
 * the counter cell. */
static int
collect_cancelled(PyObject *entry)
{
    PyObject *counter = PyList_GET_ITEM(entry, E_COUNTER);
    Py_INCREF(counter);
    PyObject *count = PyObject_GetItem(counter, int_zero);
    PyObject *less = count == NULL ? NULL
        : PyNumber_InPlaceSubtract(count, int_one);
    int r = less == NULL ? -1 : PyObject_SetItem(counter, int_zero, less);
    Py_XDECREF(count);
    Py_XDECREF(less);
    Py_DECREF(counter);
    if (r < 0)
        return -1;
    Py_INCREF(Py_None);
    return PyList_SetItem(entry, E_COUNTER, Py_None);
}

static int
check_entry(PyObject *entry)
{
    if (!PyList_Check(entry) || PyList_GET_SIZE(entry) < E_WIDTH) {
        PyErr_SetString(PyExc_TypeError,
                        "queue entries must be 7-slot lists");
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(run_doc,
"run(sim, until, max_events)\n--\n\n"
"Simulator.run over the binary heap of ``sim``.");

static PyObject *
op_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "run() takes 3 arguments");
        return NULL;
    }
    PyObject *sim = args[0], *until = args[1], *max_events = args[2];
    double until_d = 0.0;
    long long remaining = -1;
    int have_until = until != Py_None;
    if (have_until) {
        until_d = PyFloat_AsDouble(until);
        if (until_d == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (max_events != Py_None) {
        remaining = PyLong_AsLongLong(max_events);
        if (remaining == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *d = instance_dict(sim);
    if (d == NULL)
        return NULL;
    PyObject *queue = dget(d, sim, s_queue);
    if (queue == NULL)
        goto error;
    if (!PyList_Check(queue)) {
        PyErr_SetString(PyExc_TypeError, "the event queue must be a list");
        goto error;
    }
    /* halt() clears the queue in place, so a callback that halts ends
     * the loop here */
    while (PyList_GET_SIZE(queue) > 0) {
        PyObject *entry = PyList_GET_ITEM(queue, 0);
        if (check_entry(entry) < 0)
            goto error;
        PyObject *flag = PyList_GET_ITEM(entry, E_CANCELLED);
        int cancelled = flag == Py_False ? 0
            : flag == Py_True ? 1 : PyObject_IsTrue(flag);
        if (cancelled < 0)
            goto error;
        if (!cancelled) {
            if (remaining == 0)
                break;
            if (have_until) {
                PyObject *time = PyList_GET_ITEM(entry, E_TIME);
                int late;
                if (PyFloat_CheckExact(time))
                    late = PyFloat_AS_DOUBLE(time) > until_d;
                else
                    late = PyObject_RichCompareBool(time, until, Py_GT);
                if (late < 0)
                    goto error;
                if (late) {
                    if (PyDict_SetItem(d, s_now, until) < 0)
                        goto error;
                    break;
                }
            }
        }
        /* heappop returns queue[0], the entry just inspected */
        entry = PyObject_CallOneArg(heappop, queue);
        if (entry == NULL)
            goto error;
        int r;
        if (cancelled) {
            r = collect_cancelled(entry);
        }
        else {
            Py_ssize_t processed;
            Py_INCREF(Py_None);
            r = PyList_SetItem(entry, E_COUNTER, Py_None);
            if (r == 0)
                r = PyDict_SetItem(d, s_now, PyList_GET_ITEM(entry, E_TIME));
            if (r == 0)
                r = dget_ssize(d, sim, s_processed, &processed);
            if (r == 0)
                r = dset_ssize(d, s_processed, processed + 1);
            if (r == 0)
                r = fire(entry);
            remaining -= 1;
        }
        Py_DECREF(entry);
        if (r < 0)
            goto error;
    }
    Py_DECREF(queue);
    Py_DECREF(d);
    Py_RETURN_NONE;
error:
    Py_XDECREF(queue);
    Py_DECREF(d);
    return NULL;
}

PyDoc_STRVAR(pump_doc,
"pump(controller)\n--\n\n"
"StorageController._pump: dispatch to a fixed point.");

static PyObject *
op_pump(PyObject *module, PyObject *ctrl)
{
    if (pump(ctrl) < 0)
        return NULL;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(setup_doc,
"setup(on_op_done, sim_push, program, read, buffered_write)\n"
"--\n\n"
"Register the Python functions and classes the op cycle recognises:\n"
"StorageController._on_op_done, Simulator._push, OpKind.PROGRAM,\n"
"OpKind.READ and BufferedWrite.");

static PyObject *
op_setup(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "setup() takes 5 arguments");
        return NULL;
    }
    if (!PyType_Check(args[4])) {
        PyErr_SetString(PyExc_TypeError, "buffered_write must be a type");
        return NULL;
    }
    PyObject **slots[4] = {&on_op_done_func, &sim_push_func,
                           &kind_program, &kind_read};
    for (int i = 0; i < 4; i++) {
        Py_INCREF(args[i]);
        Py_XSETREF(*slots[i], args[i]);
    }
    Py_INCREF(args[4]);
    Py_XSETREF(buffered_write_type, (PyTypeObject *)args[4]);
    Py_RETURN_NONE;
}

static PyMethodDef opcycle_methods[] = {
    {"run", (PyCFunction)(void (*)(void))op_run, METH_FASTCALL, run_doc},
    {"pump", (PyCFunction)op_pump, METH_O, pump_doc},
    {"setup", (PyCFunction)(void (*)(void))op_setup, METH_FASTCALL,
     setup_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef opcycle_module = {
    PyModuleDef_HEAD_INIT,
    "_opcycle",
    "Compiled op cycle: the heap event loop and the storage "
    "controller's completion -> dispatch path.",
    -1,
    opcycle_methods,
};

#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL

PyMODINIT_FUNC
PyInit__opcycle(void)
{
    INTERN(s_dict, "__dict__");
    INTERN(s_now, "now");
    INTERN(s_processed, "processed");
    INTERN(s_queue, "_queue");
    INTERN(s_buckets, "_buckets");
    INTERN(s_seq, "_seq");
    INTERN(s_cancelled, "_cancelled");
    INTERN(s_pumping, "_pumping");
    INTERN(s_idle, "_idle");
    INTERN(s_read_queues, "_read_queues");
    INTERN(s_ftl_next_op, "_ftl_next_op");
    INTERN(s_admissions, "_admissions");
    INTERN(s_write_buffer, "write_buffer");
    INTERN(s_capacity, "capacity");
    INTERN(s_live, "_live");
    INTERN(s_sim, "sim");
    INTERN(s_queued_reads, "_queued_reads");
    INTERN(s_ftl, "ftl");
    INTERN(s_wants_background_gc, "wants_background_gc");
    INTERN(s_background_op, "background_op");
    INTERN(s_next_read_op, "_next_read_op");
    INTERN(s_kind, "kind");
    INTERN(s_addr, "addr");
    INTERN(s_data, "data");
    INTERN(s_tag, "tag");
    INTERN(s_lpn, "lpn");
    INTERN(s_on_complete, "on_complete");
    INTERN(s_chips_per_channel, "_chips_per_channel");
    INTERN(s_channel_free, "_channel_free");
    INTERN(s_t_transfer, "_t_transfer");
    INTERN(s_array_program, "_array_program");
    INTERN(s_array_read, "_array_read");
    INTERN(s_array_erase, "_array_erase");
    INTERN(s_channel, "channel");
    INTERN(s_chip, "chip");
    INTERN(s_block, "block");
    INTERN(s_page, "page");
    INTERN(s_trace, "_trace");
    INTERN(s_op_raw, "_op_raw");
    INTERN(s_op_limit, "_op_limit");
    INTERN(s_trim, "_trim");
    INTERN(s_busy, "_busy");
    INTERN(s_in_flight, "in_flight");
    INTERN(s_on_op_done, "_on_op_done");
    INTERN(s_sim_push, "_sim_push");
    INTERN(s_injector, "_injector");
    INTERN(s_on_op_complete, "on_op_complete");
    INTERN(s_handle_fault, "_handle_fault");
    INTERN(s_physics, "_physics");
    INTERN(s_on_read, "on_read");
    INTERN(s_note_physics_read, "_note_physics_read");
    INTERN(s_note_program, "note_program");
    INTERN(s_note_erase, "note_erase");
    INTERN(s_pages_remaining, "pages_remaining");
    INTERN(s_complete_request, "_complete_request");
    INTERN(s_coalesce, "coalesce");
    INTERN(s_drain_admissions, "_drain_admissions");
    INTERN(s_fifo, "_fifo");
    INTERN(s_resident, "_resident");
    INTERN(s_npages, "npages");
    INTERN(s_enqueued_at, "enqueued_at");
    INTERN(s_request, "request");
    INTERN(s_append, "append");
    INTERN(s_popleft, "popleft");
    INTERN(s_stats, "stats");
    INTERN(s_written_pages, "written_pages");
    INTERN(s_write_bandwidth, "write_bandwidth");
    INTERN(s_window, "window");
    INTERN(s_page_size, "page_size");
    INTERN(s_host, "host");
    INTERN(s_extend, "extend");
    INTERN(s_pop, "pop");
    if ((s_sample_kw = Py_BuildValue("(s)", "sample")) == NULL)
        return NULL;
    if ((empty_tuple = PyTuple_New(0)) == NULL
            || (int_zero = PyLong_FromLong(0)) == NULL
            || (int_one = PyLong_FromLong(1)) == NULL
            || (int_minus_one = PyLong_FromLong(-1)) == NULL)
        return NULL;
    for (int i = 0; i < 3; i++)
        if ((kind_codes[i] = PyLong_FromLong(i)) == NULL)
            return NULL;
    PyObject *heapq = PyImport_ImportModule("heapq");
    if (heapq == NULL)
        return NULL;
    heappush = PyObject_GetAttrString(heapq, "heappush");
    heappop = PyObject_GetAttrString(heapq, "heappop");
    Py_DECREF(heapq);
    if (heappush == NULL || heappop == NULL)
        return NULL;
    return PyModule_Create(&opcycle_module);
}
