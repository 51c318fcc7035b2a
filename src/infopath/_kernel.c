/* The compiled step kernel: rank-1 GP updates and whole uniform-random
 * rollouts.
 *
 * infopath/kernel.py builds this file on first use, loads it with
 * ctypes.PyDLL and takes its entry points from functions(): Python builtins
 * that run holding the GIL and take numpy arrays as Python objects. Every
 * result equals the Python kernel's bit for bit: draws are numpy's own
 * random_normal and the Lemire bounded draw of
 * infopath.mcts._PlanGenerator, the column product is the dgemv of the BLAS
 * numpy loaded with the arguments numpy's matmul passes it, the trace is
 * numpy's pairwise sum, and erf and rint are libm's, checked on load against
 * math.erf and round. Build with -ffp-contract=off: a fused multiply-add
 * rounds once where numpy rounds twice.
 */
#define NPY_NO_DEPRECATED_API NPY_2_0_API_VERSION
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/ndarraytypes.h"
#include "numpy/random/distributions.h"

/* cblas_dgemv and cblas_ddot of an ILP64 BLAS */
typedef void (*dgemv_t)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);
typedef double (*ddot_t)(int64_t n, const double *x, int64_t incx, const double *y,
                         int64_t incy);
enum { ROW_MAJOR = 101, TRANS = 112 };

static dgemv_t dgemv;
static ddot_t ddot;

void set_blas(void *gemv, void *dot)
{
    dgemv = (dgemv_t)gemv;
    ddot = (ddot_t)dot;
}

#define DATA(a) ((double *)PyArray_DATA((PyArrayObject *)(a)))
#define LENGTH(a) PyArray_DIM((PyArrayObject *)(a), 0)

/* A workspace's caches: rows 0..m-1 of the whitened cross-covariance w
 * (q columns), the query mean and variance, and the factor's model. */
typedef struct {
    double *w, *mean, *var;
    const double *kqq;
    int64_t q, m;
    double jitter, floor;
} gp_t;

/* numpy's pairwise sum of a contiguous vector: 8 accumulators, blocks of 128 */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* One measurement at query point j: row m of w, and the mean and variance
 * updates. Returns 0, changing nothing, when the pivot has collapsed. */
static int update(gp_t *g, int64_t j, double val, double nu)
{
    const int64_t q = g->q, mc = g->m;
    const double d2 = g->var[j] + nu + g->jitter;
    if (d2 <= g->floor)
        return 0;
    const double d = sqrt(d2);
    const double a = (val - g->mean[j]) / d;
    const double *kj = g->kqq + j * q;
    double *row = g->w + mc * q;
    /* w[:mc].T @ w[:mc, j]: numpy gives zeros for mc == 0 (the BLAS would
     * leave row unwritten) and a dot product for q == 1 */
    if (mc == 0)
        memset(row, 0, q * sizeof(double));
    else if (q == 1)
        row[0] = 0. + ddot(mc, g->w, q, g->w + j, q);
    else
        dgemv(ROW_MAJOR, TRANS, mc, q, 1., g->w, q, g->w + j, q, 0., row, 1);
    for (int64_t i = 0; i < q; i++) {
        row[i] = (kj[i] - row[i]) / d;
        g->mean[i] += a * row[i];
        g->var[i] -= row[i] * row[i];
    }
    g->m = mc + 1;
    return 1;
}

/* The trace as numpy's np.add.reduce gives it: the identity plus the sum */
static double trace(const gp_t *g) { return 0. + pairwise(g->var, g->q); }

/* BeliefWorkspace.add_measurements_at's updates for a sequence of (query
 * index, value, noise variance) sites, in place from row m of w, which has
 * room for them. Returns the new trace, or None when a pivot collapsed. */
static PyObject *rank1_update(PyObject *w, PyObject *mean, PyObject *var, PyObject *kqq,
                              double jitter, double floor, int64_t m, PyObject *sites)
{
    gp_t g = {DATA(w), DATA(mean), DATA(var), DATA(kqq), LENGTH(var), m, jitter, floor};
    PyObject *seq = PySequence_Fast(sites, "sites must be a sequence");
    if (seq == NULL)
        return NULL;
    if (m < 0 || m + PySequence_Fast_GET_SIZE(seq) > LENGTH(w)) {
        Py_DECREF(seq);
        return PyErr_Format(PyExc_IndexError, "w has no room for the sites");
    }
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *site = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i),
                                         "a site must be a sequence");
        if (site == NULL || PySequence_Fast_GET_SIZE(site) != 3) {
            if (site != NULL)
                PyErr_SetString(PyExc_ValueError, "a site is (index, value, noise variance)");
            Py_XDECREF(site);
            Py_DECREF(seq);
            return NULL;
        }
        PyObject **item = PySequence_Fast_ITEMS(site);
        int64_t j = PyLong_AsLongLong(item[0]);
        const double val = PyFloat_AsDouble(item[1]), nu = PyFloat_AsDouble(item[2]);
        Py_DECREF(site);
        if (j < 0 && !PyErr_Occurred())
            j += g.q;
        if (!PyErr_Occurred() && (j < 0 || j >= g.q))
            PyErr_SetString(PyExc_IndexError, "site index out of the query set");
        if (PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (!update(&g, j, val, nu)) {
            Py_DECREF(seq);
            Py_RETURN_NONE;
        }
    }
    Py_DECREF(seq);
    return PyFloat_FromDouble(trace(&g));
}

/* integers(n) of infopath.mcts._PlanGenerator: numpy's Lemire rule on
 * next_uint32, for 1 <= n < 2**32 */
static int64_t bounded(bitgen_t *b, uint64_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)b->next_uint32(b->state) * n;
    if ((uint32_t)m < n) {
        const uint32_t threshold = (uint32_t)(0u - (uint32_t)n) % (uint32_t)n;
        while ((uint32_t)m < threshold)
            m = (uint64_t)b->next_uint32(b->state) * n;
    }
    return (int64_t)(m >> 32);
}

/* An MDP's location tables, flat (mirrored by infopath.kernel.StepTables).
 * Location v's budget thresholds are thresholds[thr_start[v] ..
 * thr_start[v + 1]]; the actions feasible in its interval i are
 * run_steps[run_start[x] .. run_start[x + 1]] with x = thr_start[v] + v + i.
 * Action id s costs cost[s] and leads to target[s]. Its kind[s] is STATIC,
 * DRILL or VISIT (the step kinds of infopath.mdp). It measures site_count[s]
 * sites from site_start[s] on: a static step all of them, a drill or a
 * visit its one site. The parameters of a drill or a visit are
 * params[param_start[s] .. param_start[s + 1]]: the interaction reward, then
 * a drill's match tolerance and its type values. */
enum { STATIC, DRILL, VISIT };
typedef struct {
    const double *thresholds;
    const int64_t *thr_start, *run_start, *run_steps;
    const double *cost;
    const int64_t *target, *kind, *param_start;
    const double *params;
    const int64_t *site_start, *site_count, *site_node;
    const double *site_nu;
    int64_t goal;
    double weight, failure;
} tables_t;

static int64_t bisect_right(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        const int64_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* attribute names of RolloutState, BeliefWorkspace and its base belief */
enum { LOCATION, BUDGET, STEP, MEMORY, GP, W, MEAN, VAR, ADDED, M, TRACE, BASE, KQQ, JITTER,
       RESERVE, REBUILD, NAMES };
static PyObject *names[NAMES];

static int intern_names(void)
{
    static const char *const text[NAMES] = {
        "location", "remaining_budget", "step", "memory", "gp", "_w", "query_mean",
        "query_variance", "_added", "_m", "_trace", "_base", "_kqq", "_jitter", "_reserve",
        "_rebuild"};
    for (int i = 0; i < NAMES; i++)
        if (names[i] == NULL && (names[i] = PyUnicode_InternFromString(text[i])) == NULL)
            return -1;
    return 0;
}

static int get_i64(PyObject *o, int name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(o, names[name]);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return PyErr_Occurred() ? -1 : 0;
}

static int get_f64(PyObject *o, int name, double *out)
{
    PyObject *v = PyObject_GetAttr(o, names[name]);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return PyErr_Occurred() ? -1 : 0;
}

static int set(PyObject *o, int name, PyObject *v) /* steals v */
{
    const int rc = v == NULL ? -1 : PyObject_SetAttr(o, names[name], v);
    Py_XDECREF(v);
    return rc;
}

/* A rollout: the state's scalars and memory, and its workspace's caches,
 * held here from the rollout's start to its end. Only the workspace's
 * _reserve and _rebuild run Python in between. */
typedef struct {
    PyObject *ws, *memory, *w, *mean, *var, *kqq, *added; /* owned */
    gp_t g;
    int64_t rows, location, steps;
    double budget, trace, floor;
} walk_t;

static void drop(walk_t *k)
{
    Py_CLEAR(k->w);
    Py_CLEAR(k->mean);
    Py_CLEAR(k->var);
    Py_CLEAR(k->kqq);
    Py_CLEAR(k->added);
}

/* Read the workspace, as Python left it. */
static int load(walk_t *k)
{
    PyObject *base = NULL;
    drop(k);
    double jitter;
    int64_t m;
    if (get_i64(k->ws, M, &m) || get_f64(k->ws, TRACE, &k->trace) ||
        !(k->w = PyObject_GetAttr(k->ws, names[W])) ||
        !(k->mean = PyObject_GetAttr(k->ws, names[MEAN])) ||
        !(k->var = PyObject_GetAttr(k->ws, names[VAR])) ||
        !(k->added = PyObject_GetAttr(k->ws, names[ADDED])) ||
        !(base = PyObject_GetAttr(k->ws, names[BASE])) ||
        !(k->kqq = PyObject_GetAttr(base, names[KQQ])) || get_f64(base, JITTER, &jitter)) {
        Py_XDECREF(base);
        return -1;
    }
    Py_DECREF(base);
    const int materialized = k->w != Py_None;
    k->g = (gp_t){materialized ? DATA(k->w) : NULL, DATA(k->mean), DATA(k->var), DATA(k->kqq),
                  LENGTH(k->var), m, jitter, k->floor};
    k->rows = materialized ? LENGTH(k->w) : 0;
    return 0;
}

/* Write the workspace's size and trace back for Python. */
static int store(walk_t *k)
{
    return set(k->ws, M, PyLong_FromLongLong(k->g.m)) ||
           set(k->ws, TRACE, PyFloat_FromDouble(k->trace));
}

/* method(arg) of the workspace, between a store and a load */
static int call_back(walk_t *k, int method, PyObject *arg)
{
    if (store(k))
        return -1;
    PyObject *res = PyObject_CallMethodObjArgs(k->ws, names[method], arg, NULL);
    Py_XDECREF(res);
    return res == NULL || load(k) ? -1 : 0;
}

/* A draw at query point j, as infopath.mdp._draw_observation makes it */
static double draw(const walk_t *k, bitgen_t *bitgen, int64_t j, double nu)
{
    const double v = k->g.var[j];
    return random_normal(bitgen, k->g.mean[j], sqrt((0. > v ? 0. : v) + nu));
}

/* add_measurements_at for n drawn sites: room for them, the sites on the
 * workspace's list, then their updates, or a batch rebuild when a pivot
 * collapses. */
static int measure(walk_t *k, const int64_t *node, const double *nu, const double *val,
                   int64_t n)
{
    if (k->g.w == NULL || k->g.m + n > k->rows) { /* the first update copies the caches */
        PyObject *room = PyLong_FromLongLong(n);
        const int rc = room == NULL ? -1 : call_back(k, RESERVE, room);
        Py_XDECREF(room);
        if (rc)
            return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        PyObject *site = Py_BuildValue("(Ldd)", (long long)node[i], val[i], nu[i]);
        const int rc = site == NULL ? -1 : PyList_Append(k->added, site);
        Py_XDECREF(site);
        if (rc)
            return -1;
    }
    for (int64_t i = 0; i < n; i++)
        if (!update(&k->g, node[i], val[i], nu[i]))
            return call_back(k, REBUILD, NULL);
    k->trace = trace(&k->g);
    return 0;
}

/* A static step: every draw reads the state before the step */
static int static_step(walk_t *k, const tables_t *t, int64_t s, bitgen_t *bitgen)
{
    const int64_t n = t->site_count[s], first = t->site_start[s];
    if (n == 0)
        return 0;
    double val[n];
    for (int64_t i = 0; i < n; i++)
        val[i] = draw(k, bitgen, t->site_node[first + i], t->site_nu[first + i]);
    return measure(k, t->site_node + first, t->site_nu + first, val, n);
}

/* min(max(x, lo), hi) with Python's min and max, which keep a NaN */
static double clip(double x, double lo, double hi)
{
    x = lo > x ? lo : x;
    return hi < x ? hi : x;
}

/* rover._phi */
static double phi(double z) { return 0.5 * (1. + erf(z / sqrt(2.))); }

/* RoverMdp.probability_unseen at query point j, for the n type values tau
 * and the match tolerance delta: the collected types are summed in the
 * memory's own iteration order, which the sum's bits depend on. */
static int unseen(const walk_t *k, int64_t j, const double *tau, int64_t n, double delta,
                  double *p)
{
    const int collected = PyObject_IsTrue(k->memory);
    if (collected <= 0) {
        *p = 1.;
        return collected;
    }
    const double mu = k->g.mean[j], v = k->g.var[j];
    const double sigma = sqrt(1e-12 > v ? 1e-12 : v);
    double p_match = 0.;
    PyObject *it = PyObject_GetIter(k->memory), *item;
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        int64_t i = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if (i == -1 && PyErr_Occurred())
            break;
        if (i < 0) /* numpy's index from the end */
            i += n;
        if (i < 0 || i >= n) {
            PyErr_SetString(PyExc_IndexError, "a collected type is out of the type values");
            break;
        }
        p_match += phi((tau[i] + delta - mu) / sigma) - phi((tau[i] - delta - mu) / sigma);
    }
    Py_DECREF(it);
    *p = clip(1. - p_match, 0., 1.);
    return PyErr_Occurred() ? -1 : 0;
}

/* A drill or a visit, as RolloutState.advance takes it through the
 * environment's hooks: the draw first, then the interaction reward and the
 * new memory from the state before the update, then the update. */
static int dynamic_step(walk_t *k, const tables_t *t, int64_t s, bitgen_t *bitgen,
                        double *state_reward)
{
    const int64_t j = t->site_node[t->site_start[s]];
    const double nu = t->site_nu[t->site_start[s]];
    const double *param = t->params + t->param_start[s];
    const double r = param[0];
    PyObject *gained = NULL, *set = NULL, *memory = NULL;
    int rc = -1, visited = 0;
    double val = 0., p;
    if (t->kind[s] == VISIT &&
        ((gained = PyLong_FromLongLong(j)) == NULL ||
         (visited = PySequence_Contains(k->memory, gained)) < 0))
        goto done;
    if (!visited) {
        val = draw(k, bitgen, j, nu);
        if (t->kind[s] == DRILL) {
            const int64_t n = t->param_start[s + 1] - t->param_start[s] - 2;
            if (unseen(k, j, param + 2, n, param[1], &p))
                goto done;
            /* round() is half-even; a NaN raises ValueError, as int() does */
            gained = PyLong_FromDouble(rint(clip(val, 0., 1.) * (double)(n - 1)));
            if (gained == NULL)
                goto done;
        } else
            p = clip(k->g.mean[j], 0., 1.);
        *state_reward = r * p - r * (1. - p);
    }
    if ((set = PySet_New(NULL)) == NULL || PySet_Add(set, gained) ||
        (memory = PyNumber_Or(k->memory, set)) == NULL ||
        (!visited && measure(k, &j, &nu, &val, 1)))
        goto done;
    Py_SETREF(k->memory, memory);
    memory = NULL;
    rc = 0;
done:
    Py_XDECREF(gained);
    Py_XDECREF(set);
    Py_XDECREF(memory);
    return rc;
}

/* mcts.rollout's loop for a RolloutState: the discounted return of up to
 * depth uniform-random feasible steps, drawn from rng's bit generator
 * bitgen. Every step draws, updates, rewards and discounts here as
 * RolloutState.advance does; a workspace without room for a step's sites
 * calls its _reserve, and a collapsed pivot its _rebuild. The state is left
 * where the rollout ended. Returns the return as a float, or NULL with the
 * Python error set. */
static PyObject *rollout(const tables_t *t, PyObject *state, bitgen_t *bitgen, int64_t depth,
                         double gamma, double floor)
{
    walk_t k = {.floor = floor};
    if (intern_names() || get_i64(state, LOCATION, &k.location) ||
        get_f64(state, BUDGET, &k.budget) || get_i64(state, STEP, &k.steps) ||
        !(k.memory = PyObject_GetAttr(state, names[MEMORY])) ||
        !(k.ws = PyObject_GetAttr(state, names[GP])) || load(&k))
        goto error;
    double total = 0., discount = 1.;
    for (; depth > 0; depth--) {
        const int64_t v = k.location, first_threshold = t->thr_start[v];
        const int64_t x = first_threshold + v + bisect_right(t->thresholds + first_threshold,
                                                             t->thr_start[v + 1] - first_threshold,
                                                             k.budget);
        const int64_t first = t->run_start[x], n = t->run_start[x + 1] - first;
        if (n == 0)
            break;
        const int64_t s = t->run_steps[first + bounded(bitgen, n)];
        const double before = k.trace;
        double state_reward = 0.;
        if (t->kind[s] == STATIC ? static_step(&k, t, s, bitgen)
                                 : dynamic_step(&k, t, s, bitgen, &state_reward))
            goto error;
        const int64_t to = k.location = t->target[s];
        k.budget -= t->cost[s];
        k.steps += 1;
        const double reward = to != t->goal && k.budget < t->thresholds[t->thr_start[to]]
                                  ? t->failure
                                  : state_reward + t->weight * (before - k.trace);
        total += discount * reward;
        discount *= gamma;
    }
    if (store(&k) || set(state, LOCATION, PyLong_FromLongLong(k.location)) ||
        set(state, BUDGET, PyFloat_FromDouble(k.budget)) ||
        set(state, STEP, PyLong_FromLongLong(k.steps)) ||
        PyObject_SetAttr(state, names[MEMORY], k.memory))
        goto error;
    drop(&k);
    Py_DECREF(k.ws);
    Py_DECREF(k.memory);
    return PyFloat_FromDouble(total);
error:
    drop(&k);
    Py_XDECREF(k.ws);
    Py_XDECREF(k.memory);
    return NULL;
}

/* The entry points as Python builtins, which skip ctypes' argument
 * conversion; pointers come as integer addresses. */

static PyObject *py_rank1_update(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    (void)self;
    if (n != 8)
        return PyErr_Format(PyExc_TypeError, "rank1_update takes 8 arguments, not %zd", n);
    const double jitter = PyFloat_AsDouble(a[4]), floor = PyFloat_AsDouble(a[5]);
    const int64_t m = PyLong_AsLongLong(a[6]);
    return PyErr_Occurred() ? NULL : rank1_update(a[0], a[1], a[2], a[3], jitter, floor, m, a[7]);
}

static PyObject *py_rollout(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    (void)self;
    if (n != 6)
        return PyErr_Format(PyExc_TypeError, "rollout takes 6 arguments, not %zd", n);
    const tables_t *t = PyLong_AsVoidPtr(a[0]);
    bitgen_t *bitgen = PyLong_AsVoidPtr(a[2]);
    const int64_t depth = PyLong_AsLongLong(a[3]);
    const double gamma = PyFloat_AsDouble(a[4]), floor = PyFloat_AsDouble(a[5]);
    return PyErr_Occurred() ? NULL : rollout(t, a[1], bitgen, depth, gamma, floor);
}

static PyObject *py_bounded(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    (void)self;
    if (n != 2)
        return PyErr_Format(PyExc_TypeError, "bounded takes 2 arguments, not %zd", n);
    bitgen_t *bitgen = PyLong_AsVoidPtr(a[0]);
    const unsigned long long range = PyLong_AsUnsignedLongLong(a[1]);
    if (PyErr_Occurred())
        return NULL;
    if (range < 1 || range > UINT32_MAX)
        return PyErr_Format(PyExc_ValueError, "bounded takes 1 <= n < 2**32");
    return PyLong_FromLongLong(bounded(bitgen, range));
}

static PyObject *py_normal(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    (void)self;
    if (n != 3)
        return PyErr_Format(PyExc_TypeError, "normal takes 3 arguments, not %zd", n);
    bitgen_t *bitgen = PyLong_AsVoidPtr(a[0]);
    const double loc = PyFloat_AsDouble(a[1]), scale = PyFloat_AsDouble(a[2]);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(random_normal(bitgen, loc, scale));
}

static PyObject *py_erf(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    (void)self;
    if (n != 1)
        return PyErr_Format(PyExc_TypeError, "erf takes 1 argument, not %zd", n);
    const double x = PyFloat_AsDouble(a[0]);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(erf(x));
}

static PyObject *py_rint(PyObject *self, PyObject *const *a, Py_ssize_t n)
{
    (void)self;
    if (n != 1)
        return PyErr_Format(PyExc_TypeError, "rint takes 1 argument, not %zd", n);
    const double x = PyFloat_AsDouble(a[0]);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(rint(x));
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL
static PyMethodDef methods[] = {
    {"rank1_update", FASTCALL(py_rank1_update),
     "rank1_update(w, mean, var, kqq, jitter, floor, m, sites) -> trace or None"},
    {"rollout", FASTCALL(py_rollout),
     "rollout(tables, state, bitgen, depth, gamma, floor) -> discounted return"},
    {"bounded", FASTCALL(py_bounded), "bounded(bitgen, n): Generator.integers(n)"},
    {"normal", FASTCALL(py_normal), "normal(bitgen, loc, scale): Generator.normal(loc, scale)"},
    {"erf", FASTCALL(py_erf), "erf(x): the erf of the kernel's libm"},
    {"rint", FASTCALL(py_rint), "rint(x): the rint of the kernel's libm"},
    {NULL, NULL, 0, NULL}};

/* {name: builtin} of every entry point */
PyObject *functions(void)
{
    PyObject *out = PyDict_New();
    for (PyMethodDef *d = methods; out != NULL && d->ml_name != NULL; d++) {
        PyObject *f = PyCFunction_New(d, NULL);
        if (f == NULL || PyDict_SetItemString(out, d->ml_name, f) < 0)
            Py_CLEAR(out);
        Py_XDECREF(f);
    }
    return out;
}
