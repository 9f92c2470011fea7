/* Compiled batched rigid-body RK4 kernel; see kernels_py for the contract.
 *
 * Every arithmetic expression matches the numpy fallback, in the same order,
 * so the two backends agree bit for bit; setup.py builds this file with FP
 * contraction off, so no a*b+c is fused into one rounding.
 *
 * The module exports one function, step_rows(out, dt, ixx, iyy, izz, tx, ty,
 * tz, frames), which advances a C-contiguous float64 (M, n) buffer in place.
 * attbench.core validates and copies the caller's arrays before calling it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Derivative of one [q, w] row under the constant torque (tx, ty, tz) plus,
 * when frame is not NULL, the gravity-gradient torque of the frame
 * [ux, uy, uz, g]: g [(Izz-Iyy) c1 c2, (Ixx-Izz) c2 c0, (Iyy-Ixx) c0 c1] with
 * c = DCM(q) u, the radial unit vector in body axes. */
static inline void
rates(const double *s, double ixx, double iyy, double izz,
      double tx, double ty, double tz, const double *frame, double *k)
{
    double q0 = s[0], q1 = s[1], q2 = s[2], q3 = s[3];
    double wx = s[4], wy = s[5], wz = s[6];

    if (frame) {
        double ux = frame[0], uy = frame[1], uz = frame[2], g = frame[3];
        double c0 = (1.0 - 2.0 * (q2 * q2 + q3 * q3)) * ux
                    + (2.0 * (q1 * q2 + q0 * q3)) * uy
                    + (2.0 * (q1 * q3 - q0 * q2)) * uz;
        double c1 = (2.0 * (q1 * q2 - q0 * q3)) * ux
                    + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * uy
                    + (2.0 * (q2 * q3 + q0 * q1)) * uz;
        double c2 = (2.0 * (q1 * q3 + q0 * q2)) * ux
                    + (2.0 * (q2 * q3 - q0 * q1)) * uy
                    + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * uz;
        tx = tx + g * ((izz - iyy) * c1 * c2);
        ty = ty + g * ((ixx - izz) * c2 * c0);
        tz = tz + g * ((iyy - ixx) * c0 * c1);
    }
    k[0] = 0.5 * (-q1 * wx - q2 * wy - q3 * wz);
    k[1] = 0.5 * (q0 * wx - q3 * wy + q2 * wz);
    k[2] = 0.5 * (q3 * wx + q0 * wy - q1 * wz);
    k[3] = 0.5 * (-q2 * wx + q1 * wy + q0 * wz);
    k[4] = (tx - (izz - iyy) * wy * wz) / ixx;
    k[5] = (ty - (ixx - izz) * wz * wx) / iyy;
    k[6] = (tz - (iyy - ixx) * wx * wy) / izz;
}

/* One RK4 step of m rows of n doubles, quaternion renormalized once after
 * the step; columns 7.. pass through. The inertia, torque and frames arrive
 * as values and a local copy, so the compiler need not reload them after
 * every store into the rows. */
static void
step(double *x, Py_ssize_t m, Py_ssize_t n, double dt,
     double ixx, double iyy, double izz, double tx, double ty, double tz,
     const double *frames_in)
{
    double frames[3][4];
    const double *f0 = NULL, *f1 = NULL, *f2 = NULL;
    double c[7], s[7], k1[7], k2[7], k3[7], k4[7];
    Py_ssize_t i;
    int j;

    if (frames_in) {
        memcpy(frames, frames_in, sizeof frames);
        f0 = frames[0];
        f1 = frames[1];
        f2 = frames[2];
    }
    for (i = 0; i < m; i++) {
        double *row = x + i * n;
        double norm;

        for (j = 0; j < 7; j++)
            c[j] = row[j];
        rates(c, ixx, iyy, izz, tx, ty, tz, f0, k1);
        for (j = 0; j < 7; j++)
            s[j] = c[j] + (0.5 * dt) * k1[j];
        rates(s, ixx, iyy, izz, tx, ty, tz, f1, k2);
        for (j = 0; j < 7; j++)
            s[j] = c[j] + (0.5 * dt) * k2[j];
        rates(s, ixx, iyy, izz, tx, ty, tz, f1, k3);
        for (j = 0; j < 7; j++)
            s[j] = c[j] + dt * k3[j];
        rates(s, ixx, iyy, izz, tx, ty, tz, f2, k4);
        for (j = 0; j < 7; j++)
            s[j] = c[j] + (dt / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        norm = sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3]);
        for (j = 0; j < 4; j++)
            row[j] = s[j] / norm;
        for (j = 4; j < 7; j++)
            row[j] = s[j];
    }
}

/* A C-contiguous float64 buffer of the given rank; raises ValueError and
 * releases it otherwise. */
static int
get_doubles(PyObject *obj, Py_buffer *view, int flags, int ndim)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim != ndim || view->itemsize != sizeof(double)
        || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "expected a C-contiguous float64 array");
        return -1;
    }
    return 0;
}

static PyObject *
step_rows(PyObject *self, PyObject *args)
{
    PyObject *states, *frames;
    Py_buffer xv, fv;
    double dt, ixx, iyy, izz, tx, ty, tz;
    const double *f = NULL;

    if (!PyArg_ParseTuple(args, "OdddddddO:step_rows", &states, &dt,
                          &ixx, &iyy, &izz, &tx, &ty, &tz, &frames))
        return NULL;
    if (get_doubles(states, &xv, PyBUF_WRITABLE, 2) < 0)
        return NULL;
    if (xv.shape[1] < 7) {
        PyBuffer_Release(&xv);
        PyErr_SetString(PyExc_ValueError, "states must be (M, n) with n >= 7");
        return NULL;
    }
    if (frames != Py_None) {
        if (get_doubles(frames, &fv, PyBUF_SIMPLE, 2) < 0) {
            PyBuffer_Release(&xv);
            return NULL;
        }
        if (fv.shape[0] != 3 || fv.shape[1] != 4) {
            PyBuffer_Release(&fv);
            PyBuffer_Release(&xv);
            PyErr_SetString(PyExc_ValueError, "frames must be (3, 4)");
            return NULL;
        }
        f = fv.buf;
    }
    Py_BEGIN_ALLOW_THREADS
    step(xv.buf, xv.shape[0], xv.shape[1], dt, ixx, iyy, izz, tx, ty, tz, f);
    Py_END_ALLOW_THREADS
    if (f)
        PyBuffer_Release(&fv);
    PyBuffer_Release(&xv);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"step_rows", step_rows, METH_VARARGS,
     "step_rows(out, dt, ixx, iyy, izz, tx, ty, tz, frames)\n--\n\n"
     "Advance the (M, n) float64 rows of out by one RK4 step, in place."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernels_c",
    .m_doc = "Compiled batched rigid-body RK4 kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    return PyModule_Create(&module);
}
